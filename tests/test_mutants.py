"""Mutation checks for the exact verify suites.

Each mutant breaks one primitive in a small, plausible way, and the table
names the exact suites that fail under it.  The tests run only those
suites, so a mutant that a suite stops catching fails here.  Equivalent
mutants change no value the suites can see; each is listed with the
reason, and the test checks that its suites still pass.

Run as a script, it prints every mutant against all eight exact suites
and exits 1 when a row differs from the table:

    PYTHONPATH=src python tests/test_mutants.py

Known gap: `expansion` does not catch the `falling` mutant.  Both
`expand_operator` and `reconstruct_operator` read `falling(m, n)` for
n < m, so the wrong value cancels in the roundtrip.  The mutant is caught
there only once it also changes n = 1, because `reconstruct` reads
`falling(1, 1)` where `expand` reads `factorial(1)`.  The closed-form row
for the q-dilation that would close the gap changes the verify report, so
it waits for the next regeneration of the benchmark references.
"""

from __future__ import annotations

import sys

import pytest

from psicalc import expansion, psi as psi_mod, sequences, verify
from psicalc.operators import OperatorSeries
from psicalc.poly import Poly
from psicalc.psi import PsiSequence
from psicalc.ratfun import ONE

EXACT_SUITES = ("methods", "laguerre", "binomial", "sheffer", "expansion", "qmutator",
                "nogo", "pincherle")


def _wrap(mp, owners, name, mutate):
    """Point `name` on every owner at mutate(real, *args)."""
    real = getattr(owners[0], name)
    for owner in owners:
        mp.setattr(owner, name, lambda *args: mutate(real, *args))


def _falling(real, psi, n, k):
    got = real(psi, n, k)
    return got + ONE if k == 1 and n >= 2 else got


def _expand_g1(real, *args):
    gs = real(*args)
    if len(gs) > 1:
        gs[1] = gs[1] + gs[1]
    return gs


def _coords_last(real, *args):
    coords = real(*args)
    coords[-1] = coords[-1] + coords[-1]
    return coords


def _binomial_7_3(real, psi, n, k):
    got = real(psi, n, k)
    return got + ONE if (n, k) == (7, 3) else got


def _translate_top(real, psi, p):
    return Poly(real(psi, p).coeffs[:-1])


def _pincherle_last(real, s):
    got = real(s)
    if s.rule is not None:  # an unending series has no last term
        return got
    return OperatorSeries(s.psi, [got.coeff(k) for k in range(len(s.coeffs) - 2)])


def _mutator_9(real, psi, n):
    got = real(psi, n)
    return got + ONE if n == 9 else got


# name -> (install on a MonkeyPatch, the exact suites that fail), as measured
MUTANTS = {
    "falling(n, 1) + 1 for n >= 2": (
        lambda mp: _wrap(mp, [PsiSequence], "falling", _falling), ("laguerre",)),
    "expand_operator with g_1 doubled": (
        lambda mp: _wrap(mp, [expansion, verify], "expand_operator", _expand_g1),
        ("expansion",)),
    "to_basic_coords with its last coordinate doubled": (
        lambda mp: _wrap(mp, [expansion], "to_basic_coords", _coords_last),
        ("expansion", "qmutator")),
    "psi-binomial at (7, 3) + 1": (
        lambda mp: _wrap(mp, [PsiSequence], "binomial", _binomial_7_3),
        ("binomial", "sheffer", "nogo")),
    "translate drops its top x-row": (
        lambda mp: _wrap(mp, [psi_mod, sequences, verify], "translate", _translate_top),
        ("binomial", "sheffer", "nogo")),
    "pincherle drops its last term": (
        lambda mp: _wrap(mp, [OperatorSeries], "pincherle", _pincherle_last),
        ("methods", "pincherle")),
    "mutator_eigenvalue(9) + 1": (
        lambda mp: _wrap(mp, [PsiSequence], "mutator_eigenvalue", _mutator_9),
        ("qmutator", "nogo")),
}

# name -> (install, the suites that read the mutated value, why it is equivalent)
EQUIVALENT = {
    "psi-binomial with k and n - k swapped": (
        lambda mp: _wrap(mp, [PsiSequence], "binomial",
                         lambda real, psi, n, k: real(psi, n, n - k)),
        ("binomial", "sheffer", "nogo"),
        "C(n, k)_psi = psi_k psi_{n-k} / psi_n is symmetric in k and n - k"),
}


def outcome(suite: str) -> str:
    """"pass", "FAIL" (a row failed) or "raise" (the suite raised)."""
    try:
        rows = verify.SUITES[suite]()
    except Exception:
        return "raise"
    return "pass" if all(r.passed for r in rows) else "FAIL"


@pytest.mark.parametrize("mutant, suite", [
    (name, suite) for name, (_, suites) in MUTANTS.items() for suite in suites
], ids=lambda v: v)
def test_mutant_fails_its_suites(monkeypatch, mutant, suite):
    install, _ = MUTANTS[mutant]
    install(monkeypatch)
    assert outcome(suite) != "pass"


@pytest.mark.parametrize("mutant", list(EQUIVALENT))
def test_equivalent_mutant_passes_its_suites(monkeypatch, mutant):
    install, suites, _ = EQUIVALENT[mutant]
    install(monkeypatch)
    assert [outcome(s) for s in suites] == ["pass"] * len(suites)


def main() -> int:
    table = {name: (install, suites) for name, (install, suites) in MUTANTS.items()}
    table.update({name: (install, ()) for name, (install, _, _) in EQUIVALENT.items()})
    width = max(map(len, table))
    print(" " * width + "  " + "  ".join(EXACT_SUITES))
    stale = []
    for name, (install, listed) in table.items():
        with pytest.MonkeyPatch.context() as mp:
            install(mp)
            got = [outcome(s) for s in EXACT_SUITES]
        cells = "  ".join(g.ljust(len(s)) for g, s in zip(got, EXACT_SUITES))
        print(f"{name.ljust(width)}  {cells}".rstrip())
        caught = tuple(s for s, g in zip(EXACT_SUITES, got) if g != "pass")
        if caught != listed:
            stale.append(f"{name}: caught by {caught}, listed {listed}")
    for name, (_, _, why) in EQUIVALENT.items():
        print(f"equivalent: {name}: {why}")
    for line in stale:
        print(f"table differs: {line}")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
