"""RTS006 — bench determinism.

Result-producing code must be replayable: randomness comes from seeded
``np.random.default_rng`` generators, and time comes from the simulated
clock (or ``time.perf_counter``/``time.monotonic`` for pure wall-clock
*reporting*). ``time.time()`` couples results to the wall clock;
legacy ``np.random.*`` calls and unseeded ``default_rng()`` couple them
to process-global hidden state — the exact gate's bit-exact counter
baselines only work because neither appears in the stack.
"""

from __future__ import annotations

import ast

from repro.analysis.checkers.common import NUMPY_ALIASES, attr_chain
from repro.analysis.findings import Finding
from repro.analysis.framework import Checker, FileContext

#: np.random attributes that are *constructors* of explicit, seedable
#: state — allowed. Everything else on np.random is the legacy global.
_SEEDED_API = frozenset(
    {
        "default_rng", "Generator", "SeedSequence", "BitGenerator",
        "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
    }
)

_STDLIB_RANDOM = frozenset(
    {
        "random", "randint", "randrange", "uniform", "choice", "choices",
        "shuffle", "sample", "seed", "gauss", "normalvariate", "betavariate",
    }
)


class BenchDeterminism(Checker):
    rule_id = "RTS006"
    title = "no wall-clock time.time() or unseeded/global RNG"
    rationale = (
        "The exact gate replays every benchmark against a "
        "committed baseline, which requires bit-identical results run "
        "to run. time.time() leaks the wall clock into results (use "
        "time.perf_counter for durations, the platform model for "
        "simulated time); np.random legacy calls and zero-argument "
        "default_rng() read process-global or OS entropy (seed every "
        "generator — RTSIndex.fork once reset its RNG from OS entropy "
        "before state-copying, exactly the pattern this rule bans)."
    )
    scope = None  # all of src/repro
    node_types = (ast.Call,)

    def __init__(self):
        self._findings: list[Finding] = []

    def begin_file(self, ctx: FileContext) -> None:
        self._findings = []

    def _flag(self, ctx: FileContext, node: ast.AST, message: str) -> None:
        self._findings.append(Finding(ctx.rel, node.lineno, self.rule_id, message))

    def visit(self, ctx: FileContext, node: ast.Call) -> None:
        chain = attr_chain(node.func)
        if chain is None:
            return
        if chain == ["time", "time"] or chain == ["time", "time_ns"]:
            self._flag(
                ctx,
                node,
                "wall-clock time.time() in a result-producing path; use "
                "time.perf_counter/monotonic for durations or the simulated clock",
            )
        elif (
            len(chain) >= 3
            and chain[-3] in NUMPY_ALIASES
            and chain[-2] == "random"
            and chain[-1] not in _SEEDED_API
        ):
            self._flag(
                ctx,
                node,
                f"legacy global np.random.{chain[-1]}(); use a seeded "
                "np.random.default_rng generator",
            )
        elif chain[-1] == "default_rng" and not node.args and not node.keywords:
            self._flag(
                ctx,
                node,
                "unseeded default_rng() draws OS entropy; pass an explicit seed "
                "(or copy.deepcopy an existing generator)",
            )
        elif len(chain) == 2 and chain[0] == "random" and chain[1] in _STDLIB_RANDOM:
            self._flag(
                ctx,
                node,
                f"stdlib random.{chain[1]}() uses process-global state; use a "
                "seeded np.random.default_rng generator",
            )

    def end_file(self, ctx: FileContext):
        return self._findings
