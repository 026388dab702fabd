"""Seeded, closed-loop operation streams for the four workloads.

Each workload is one client issuing its next command only after the last
one finished.  A stream is a sequence of rounds.  A round is a fixed list
of slots, each naming a command and a size band; the seed draws everything
else (the size inside the band, --Q, --S, --op, --format, the psi table or
q value) and the order of the slots.  Rounds keep every run's mix of
command kinds and sizes the same while the argv lists differ between
seeds, which is what lets a percentile from one short run repeat across
seeds.  Choices that shape cost the most (--Q, and --Q x --op for expand)
cycle through a seeded permutation per size band, so every choice appears
equally often.
"""

from __future__ import annotations

import random

import menus

WORKLOADS = ("verify-all", "cli-qgauss", "cli-scalar", "numeric")

# (command, low, high): one slot per entry in every round.  A band holding
# exactly one full cycle of its choices (4 slots for --Q, 12 for expand's
# --Q x --op) is a full factorial in every round; a 4-slot expand band
# draws each --Q once.  --Q sets most of an operation's cost at large N
# (basic at N 12 takes 0.06 s with --Q derivative and 0.84 s with
# shifted), so the heaviest cells are full factorials: every round then
# holds the same multiset of heavy costs, and the 90th percentile falls
# among them whatever the seed.  Every command draws N over 1-12 and
# expand over 1-8; expand at N 9-10 (up to 2.4 s for one operation, and
# 13 s for one factorial) is in the menu and the references but not in
# the draw.  On a 2-vCPU x86_64 VM a cli-qgauss round takes 11-13 s,
# a cli-scalar round about 8 s and a numeric round about 12 s, so with
# run_seconds 30 a run there is two, three and two whole rounds, and a
# verify-all run one pass.
QGAUSS_SLOTS = (
    *[("table", 1, 12)] * 2, *[("nogo", 1, 8)] * 3, *[("laguerre", 1, 8)] * 3,
    *[("nogo", 9, 12)] * 2, *[("laguerre", 9, 12)] * 2,
    *[("basic", 1, 5)] * 12, *[("sheffer", 1, 5)] * 12, *[("expand", 1, 5)] * 12,
    *[("basic", 6, 11)] * 6, *[("sheffer", 6, 11)] * 6, *[("expand", 6, 7)] * 4,
    *[("expand", 8, 8)] * 12, *[("basic", 12, 12)] * 4, *[("sheffer", 12, 12)] * 4,
)
SCALAR_SLOTS = (
    *[("table", 12, 28)] * 4, *[("nogo", 12, 28)] * 4,
    *[("basic", n, n) for n in (12, 16, 20, 24, 28) for _ in range(4)],
    *[("sheffer", n, n) for n in (12, 16, 20, 24, 28) for _ in range(4)],
    *[("expand", n, n) for n in (14, 20) for _ in range(12)],
)
# spin j bands (in units of 2j) split where the known-defect cells begin
# (the spin argvs refs/numeric.json records as exiting 1: j >= 3/2 for
# q = 1.0000001, j >= 10 for q in {0.5, 2.0}, j >= 14 for q = 1.5), so every
# round holds the same share of defect cells: 44 of its 131 operations.  The small-j bands
# (nearly flat cost) appear twice and hold the median.
SPIN_J2_BANDS = (
    *[band for band in ((1, 2), (3, 6), (7, 10), (11, 14), (15, 19), (20, 23), (24, 27))
      for _ in range(2)],
    (28, 53), (54, 79), (80, 109), (110, 139), (140, 169), (170, 200),
)
# the narrow top band pins the largest matrix, which sets peak_rss_mb
WEYL_BANDS = tuple((lo, lo + 24) for lo in range(2, 228, 25)) + ((252, 256),)


class _Cycler:
    """Hands out choices from seeded permutations, one full cycle at a time."""

    def __init__(self, rng: random.Random, choices):
        self.rng = rng
        self.choices = tuple(choices)
        self.pending: list = []

    def cycle(self) -> list:
        out = list(self.choices)
        self.rng.shuffle(out)
        return out

    def next(self):
        if not self.pending:
            self.pending = self.cycle()
        return self.pending.pop()


class _ExpandCycler(_Cycler):
    """expand's (--Q, --op) pairs: each cycle is the full factorial, and every
    aligned block of four draws holds each --Q once (with a seeded --op)."""

    def __init__(self, rng: random.Random):
        super().__init__(rng, ())

    def cycle(self) -> list:
        ops = {Q: self.rng.sample(menus.OP_CHOICES, len(menus.OP_CHOICES))
               for Q in menus.Q_CHOICES}
        out = []
        for block in range(len(menus.OP_CHOICES)):
            Qs = self.rng.sample(menus.Q_CHOICES, len(menus.Q_CHOICES))
            out += [(Q, ops[Q][block]) for Q in Qs]
        return out


def _exact_round(rng, slots, psis, cyclers) -> list[list[str]]:
    out = []
    for cmd, lo, hi in slots:
        band = (cmd, lo, hi)
        if band not in cyclers:
            cyclers[band] = (_ExpandCycler(rng) if cmd == "expand"
                             else _Cycler(rng, menus.Q_CHOICES))
            cyclers["N", band] = _Cycler(rng, range(lo, hi + 1))
        n = cyclers["N", band].next()
        fmt = cyclers["fmt"].next()
        psi = cyclers["psi"].next() if psis else "qgauss"
        if cmd == "basic":
            argv = menus.exact_argv(cmd, psi, n, fmt, Q=cyclers[band].next())
        elif cmd == "sheffer":
            argv = menus.exact_argv(cmd, psi, n, fmt, Q=cyclers[band].next(),
                                    S=cyclers["S"].next())
        elif cmd == "expand":
            Q, op = cyclers[band].next()
            argv = menus.exact_argv(cmd, psi, n, fmt, Q=Q, op=op)
        else:
            argv = menus.exact_argv(cmd, psi, n, fmt)
        out.append(argv)
    rng.shuffle(out)
    return out


def _numeric_round(rng) -> list[list[str]]:
    out = []
    for q in menus.SPIN_Q:
        for lo, hi in SPIN_J2_BANDS:
            out.append(menus.spin_argv(rng.randint(lo, hi), q))
    for lo, hi in WEYL_BANDS:
        out.append(menus.weyl_argv(rng.randint(lo, hi)))
    rng.shuffle(out)
    return out


def rounds(workload: str, seed: int):
    """Endless iterator over the rounds of one workload's stream."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    cyclers = {
        "fmt": _Cycler(rng, menus.FORMATS),
        "psi": _Cycler(rng, menus.SCALAR_PSIS),
        "S": _Cycler(rng, menus.S_CHOICES),
    }
    while True:
        if workload == "verify-all":
            yield [["verify", "--suite", "all"]]
        elif workload == "cli-qgauss":
            yield _exact_round(rng, QGAUSS_SLOTS, (), cyclers)
        elif workload == "cli-scalar":
            yield _exact_round(rng, SCALAR_SLOTS, menus.SCALAR_PSIS, cyclers)
        else:
            yield _numeric_round(rng)


def draw(workload: str, seed: int, n_rounds: int) -> list[list[str]]:
    """The first n_rounds rounds of a stream, flattened to one argv list."""
    it = rounds(workload, seed)
    return [argv for _ in range(n_rounds) for argv in next(it)]
