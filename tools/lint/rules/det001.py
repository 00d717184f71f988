"""DET001 — determinism in seeded train/replay paths.

The reproduction's headline guarantees (bitwise batch parity between eager
and sharded loaders, bitwise checkpoint resume, 1-process ≡ fused parity)
all rest on one discipline: every random draw flows through
:mod:`repro.utils.rng` (explicit seed -> ``numpy.random.Generator``) and
every *recorded* clock is injectable.  One ``np.random.rand()`` hiding in a
train path silently couples results to global interpreter state; one
``time.time()`` baked into replayed data makes two identical runs diverge.

Flagged inside the seeded-path scope (core, kernels, parallel, data, lsh,
hashing, sampling, optim, datasets, and the checkpoint format):

* ``np.random.<fn>(...)`` for any module-level convenience function
  (``rand``, ``seed``, ``shuffle``, ...) — construction helpers
  (``default_rng``, ``SeedSequence``, ``Generator``, bit generators) are
  the sanctioned spellings;
* stdlib ``random.<fn>(...)`` module-state calls (``random.Random(seed)``
  instances are fine);
* ``time.time()`` / ``time.time_ns()`` — wall clocks; ``monotonic`` /
  ``perf_counter`` are measurement, not replayed state, and stay legal.

Legitimate uses carry a pragma: ``# repro: allow[clock] <why>`` (e.g.
checkpoint metadata timestamps) or ``# repro: allow[rng] <why>``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.lint.astutil import dotted
from tools.lint.core import ModuleSource, Rule, Violation

__all__ = ["DeterminismRule"]

# Repo-relative prefixes forming the seeded train/replay surface.
_SCOPE_PREFIXES = (
    "src/repro/core/",
    "src/repro/kernels/",
    "src/repro/parallel/",
    "src/repro/data/",
    "src/repro/lsh/",
    "src/repro/hashing/",
    "src/repro/sampling/",
    "src/repro/optim/",
    "src/repro/datasets/",
    "src/repro/state.py",
    "src/repro/utils/",
)

# np.random attributes that *construct* explicit generators (sanctioned).
_SAFE_NP_RANDOM = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}

_WALL_CLOCKS = {"time.time", "time.time_ns"}


class DeterminismRule(Rule):
    code = "DET001"
    name = "determinism"
    description = (
        "seeded train/replay paths must route RNGs through repro.utils.rng "
        "and must not bake wall-clock time into replayed state"
    )
    tags = ("rng", "clock")

    def check_module(self, module: ModuleSource) -> Iterator[Violation]:
        if not module.rel.startswith(_SCOPE_PREFIXES):
            return
        imports_stdlib_random = self._imports_stdlib_random(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            source = dotted(node.func)
            # numpy global-state RNG: np.random.X(...) / numpy.random.X(...)
            parts = source.split(".")
            if len(parts) >= 3 and parts[-2] == "random" and parts[-3] in (
                "np",
                "numpy",
            ):
                if parts[-1] not in _SAFE_NP_RANDOM:
                    yield self.violation(
                        module,
                        node,
                        f"global-state RNG call {source}() in a seeded path; "
                        "derive a Generator via repro.utils.rng instead",
                    )
                continue
            # stdlib random module state: random.random(), random.seed(), ...
            if (
                imports_stdlib_random
                and len(parts) == 2
                and parts[0] == "random"
                and parts[1] != "Random"
            ):
                yield self.violation(
                    module,
                    node,
                    f"stdlib global-state RNG call {source}() in a seeded "
                    "path; use an explicit seeded generator",
                )
                continue
            if source in _WALL_CLOCKS:
                yield self.violation(
                    module,
                    node,
                    f"wall clock {source}() in a seeded path; inject the "
                    "clock (or justify with '# repro: allow[clock]')",
                )

    @staticmethod
    def _imports_stdlib_random(tree: ast.AST) -> bool:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" and alias.asname in (None, "random"):
                        return True
        return False
