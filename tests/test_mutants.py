"""Mutation checks for the verify suites and the random cells.

Each mutant breaks one primitive in a small, plausible way, and the table
names the catchers that fail under it: the verify suites, and `cells`, the
random-cell differential of `tests/test_random_cells.py`, which reaches
the delta operators and psi tables that the verify grid leaves out.  The
tests run only the listed catchers, so a mutant that a catcher stops
catching fails here.  Equivalent mutants change no value the catchers can
see; each is listed with the reason, and the test checks that its
catchers still pass.

The numeric matrices are `weyl.Diagonals` from their build on (J- is the
transpose of J+), and the checks compute on them at every size, so a
mutant of its product, difference or transpose reaches the `su2`, `polar`
and `weyl` suites at the small sizes they run.

Run as a script, it prints every mutant against every verify suite and
the random cells, and exits 1 when a row differs from the table:

    PYTHONPATH=src python tests/test_mutants.py

Known numeric survivor, not in the table: `su2q.q_bracket` ignoring q.
The `su2` target is built with the same bracket as the ladders, and the
undeformed bracket satisfies the relation too, so `su2` and `polar` both
pass.  Catching it needs an exact bracket that does not go through
`q_bracket`.
"""

from __future__ import annotations

import functools
import inspect
import sys
import textwrap

import pytest
import test_random_cells

from psicalc import expansion, operators, psi as psi_mod, ratfun, sequences, su2q, verify, weyl
from psicalc.operators import OperatorSeries
from psicalc.poly import Poly
from psicalc.psi import PsiSequence
from psicalc.ratfun import ONE

CATCHERS = (*verify.SUITES, "cells")


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


def _reconstruct_g1(real, coeff_polys, *args):
    if len(coeff_polys) > 1:
        coeff_polys = [coeff_polys[0], coeff_polys[1] + coeff_polys[1], *coeff_polys[2:]]
    return real(coeff_polys, *args)


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


def _rebuilt(module, name, old, new):
    """`module.name` rebuilt in its module from its source with `old`
    replaced by `new`; a dotted name reaches a method or property of a class."""
    target = functools.reduce(getattr, name.split("."), module)
    real = textwrap.dedent(inspect.getsource(getattr(target, "fget", target)))
    mutant = real.replace(old, new)
    assert mutant != real, f"{name} no longer contains {old!r}"
    namespace = dict(vars(module))
    exec(mutant, namespace)
    return namespace[name.split(".")[-1]]


def _solve_times_a1(mp):
    """The triangular solve multiplies by a_1 where it should divide.

    Every grid delta has a_1 = +-1, where the two agree, so no verify suite
    sees this.
    """
    mp.setitem(sequences.BASIC_BUILDERS, "solve", _rebuilt(
        sequences, "_basic_solve",
        "pivots = [a(1) * psi.number(m + 1)", "pivots = [psi.number(m + 1) / a(1)"))


def _product_drops_top(mp):
    """The series product's a_k leaves out its i = k term, a_k b_0."""
    mp.setattr(OperatorSeries, "__mul__", _rebuilt(
        operators, "OperatorSeries.__mul__", "xs[:k + 1]", "xs[:k]"))


def _dot_stale_denominator(mp):
    """`dot` adds a constant term whose denominator divides the running one
    without rescaling it to that denominator."""
    stale = _rebuilt(ratfun, "dot", "if b == bottom:", "if bottom % b == 0:")
    for owner in (ratfun, operators, expansion, sequences):
        mp.setattr(owner, "dot", stale)


def _canonical_skips_gcd(mp):
    """`_canonical`, which ends + over different forms and every nonconstant
    dot, leaves a factor common to num and den uncancelled."""
    mp.setattr(ratfun, "_canonical", _rebuilt(
        ratfun, "_canonical", "if len(num) > 1 and len(den) > 1:", "if False:"))


def _conjugated_clock(mp):
    """sigma2 = diag(omega-bar^k): the relation and omega^P flip to the
    other convention, which a check that tried both would accept."""
    build = _rebuilt(weyl, "weyl_build", "clock = np.exp(2j", "clock = np.exp(-2j")
    for owner in (weyl, verify):
        mp.setattr(owner, "weyl_build", build)


def _corner_dropped(real, n):
    m = real(n)
    del m[1 - n]
    return m


def _moduli_swapped(mp):
    polar = _rebuilt(su2q, "polar_decompose",
                     "modulus, comodulus = (", "comodulus, modulus = (")
    for owner in (su2q, verify):
        mp.setattr(owner, "polar_decompose", polar)


def _diagonals_mutant(method, old, new):
    """Install `weyl.Diagonals.method` rebuilt with `old` replaced by `new`;
    every numeric check computes on Diagonals."""
    return lambda mp: mp.setattr(weyl.Diagonals, method, _rebuilt(
        weyl, f"Diagonals.{method}", old, new))


def _mutator_9(real, psi, n):
    got = real(psi, n)
    return got + ONE if n == 9 else got


# name -> (install on a MonkeyPatch, the catchers that fail), as measured;
# a catcher is a verify suite or "cells"
MUTANTS = {
    "falling(n, 1) + 1 for n >= 2": (
        lambda mp: _wrap(mp, [PsiSequence], "falling", _falling), ("laguerre", "expansion")),
    "expand_operator with g_1 doubled": (
        lambda mp: _wrap(mp, [expansion, verify, test_random_cells], "expand_operator",
                         _expand_g1),
        ("expansion", "cells")),
    "reconstruct_operator with g_1 doubled": (
        lambda mp: _wrap(mp, [expansion, verify, test_random_cells], "reconstruct_operator",
                         _reconstruct_g1),
        ("expansion", "cells")),
    "to_basic_coords with its last coordinate doubled": (
        lambda mp: _wrap(mp, [expansion], "to_basic_coords", _coords_last),
        ("expansion", "qmutator", "cells")),
    "psi-binomial at (7, 3) + 1": (
        lambda mp: _wrap(mp, [PsiSequence], "binomial", _binomial_7_3),
        ("binomial", "sheffer", "nogo")),
    "translate drops its top x-row": (
        lambda mp: _wrap(mp, [psi_mod, sequences, verify], "translate", _translate_top),
        ("binomial", "sheffer", "nogo", "cells")),
    "pincherle drops its last term": (
        lambda mp: _wrap(mp, [OperatorSeries], "pincherle", _pincherle_last),
        ("methods", "pincherle", "cells")),
    "series product drops its i = k term": (_product_drops_top, ("methods", "cells")),
    "mutator_eigenvalue(9) + 1": (
        lambda mp: _wrap(mp, [PsiSequence], "mutator_eigenvalue", _mutator_9),
        ("qmutator", "nogo")),
    "basic solve multiplies by a_1": (_solve_times_a1, ("cells",)),
    "dot sums constants over a stale denominator": (
        _dot_stale_denominator, ("methods", "expansion", "cells")),
    "_canonical skips its num/den gcd": (_canonical_skips_gcd, ("cells",)),
    "sigma2 built from omega-bar": (_conjugated_clock, ("weyl",)),
    "shift corner entry dropped": (
        lambda mp: _wrap(mp, [weyl], "cyclic_shift", _corner_dropped), ("weyl",)),
    "polar modulus and comodulus swapped": (_moduli_swapped, ("polar",)),
    "Diagonals product drops the last row of each diagonal pair": (
        _diagonals_mutant("__matmul__", "min(n, n - p, n - r)", "min(n, n - p, n - r) - 1"),
        ("su2", "polar", "weyl")),
    "Diagonals difference drops the other's highest diagonal": (
        _diagonals_mutant("__sub__", "in other.items():", "in list(other.items())[:-1]:"),
        ("su2", "polar", "weyl")),
    "Diagonals transpose keeps the offset's sign": (
        _diagonals_mutant("T", "(-p, v)", "(p, v)"), ("su2", "polar", "weyl")),
}

# name -> (install, the catchers that read the mutated value, why it is equivalent)
EQUIVALENT = {
    "psi-binomial with k and n - k swapped": (
        lambda mp: _wrap(mp, [PsiSequence], "binomial",
                         lambda real, psi, n, k: real(psi, n, n - k)),
        ("binomial", "sheffer", "nogo", "cells"),
        "C(n, k)_psi = psi_k psi_{n-k} / psi_n is symmetric in k and n - k"),
}


def outcome(catcher: str) -> str:
    """"pass", "FAIL" (a row or an assertion failed) or "raise" (the catcher raised)."""
    try:
        if catcher == "cells":
            test_random_cells.test_random_cells()
            return "pass"
        rows = verify.SUITES[catcher]()
    except AssertionError:
        return "FAIL"
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
    print(" " * width + "  " + "  ".join(CATCHERS))
    stale = []
    for name, (install, listed) in table.items():
        with pytest.MonkeyPatch.context() as mp:
            install(mp)
            got = [outcome(s) for s in CATCHERS]
        row = "  ".join(g.ljust(len(s)) for g, s in zip(got, CATCHERS))
        print(f"{name.ljust(width)}  {row}".rstrip())
        caught = tuple(s for s, g in zip(CATCHERS, got) if g != "pass")
        if caught != listed:
            stale.append(f"{name}: caught by {caught}, listed {listed}")
    for name, (_, _, why) in EQUIVALENT.items():
        print(f"equivalent: {name}: {why}")
    for line in stale:
        print(f"table differs: {line}")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
