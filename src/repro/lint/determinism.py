"""D-rules: determinism of the simulation and digest pipeline.

The paper's claims (Theorems 3-5) are deterministic: ``Dispersion_Dynamic``
terminates within a fixed round budget against *any* 1-interval connected
adversary, and the reproduction asserts those bounds on concrete runs.
That only holds if a :class:`~repro.sim.spec.RunSpec` fully determines
its :class:`~repro.sim.metrics.RunResult` -- which rules out reading the
wall clock, drawing unseeded randomness or consulting the process
environment anywhere inside the simulation and digest path.  The blessed
alternatives are the seeded-RNG idiom (``random.Random(seed)`` with a
seed derived from the spec) and the engine's round counter.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from repro.lint.findings import Finding, RuleInfo
from repro.lint.rules import (
    DETERMINISM_EXEMPT,
    DETERMINISM_SCOPE,
    ModuleContext,
    Rule,
    dotted_name,
    register_rule,
)

#: Dotted call targets that read the wall clock or calendar.  Monotonic
#: duration clocks (``time.perf_counter``, ``time.monotonic``) are *not*
#: listed: they measure elapsed time without injecting the epoch into
#: results, which is what benchmarking and retry backoff legitimately do.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "time.strftime",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.datetime.fromtimestamp",
        "date.today",
        "datetime.date.today",
    }
)

#: Module-level functions of :mod:`random` that draw from (or reseed) the
#: shared global RNG.  ``random.Random(seed)`` instances are the blessed
#: route and are untouched; ``random.Random()`` *without* a seed is
#: handled separately -- it seeds itself from the OS.
GLOBAL_RANDOM_CALLS = frozenset(
    {
        "seed",
        "random",
        "randint",
        "randrange",
        "randbytes",
        "getrandbits",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "triangular",
        "betavariate",
        "expovariate",
        "gammavariate",
        "gauss",
        "lognormvariate",
        "normalvariate",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
    }
)


#: numpy RNG constructors.  Like ``random.Random``, they are the blessed
#: route when given a seed and a source only when called with no
#: arguments (they then seed themselves from the OS).  Every other
#: ``numpy.random.*`` call draws from numpy's global RNG.
NUMPY_RNG_CONSTRUCTORS = frozenset(
    {"default_rng", "Generator", "RandomState", "SeedSequence",
     "BitGenerator", "MT19937", "PCG64", "PCG64DXSM", "Philox", "SFC64"}
)


def nondeterminism_source(node: ast.AST) -> Optional[Tuple[str, str]]:
    """``(kind, detail)`` when ``node`` itself reads a nondeterminism source.

    The one classifier both lint tiers share: the shallow D001-D003 and
    C003 rules report what it finds inside their scopes, and the
    whole-program taint pass seeds T001 from it.  Kinds are
    ``wall_clock``, ``unseeded_rng``, ``env_read`` and ``builtin_hash``;
    ``detail`` is the dotted call target (``os.environ`` for the
    attribute read, ``hash`` for the builtin).
    """
    if isinstance(node, ast.Attribute):
        if node.attr == "environ" and dotted_name(node) == "os.environ":
            return ("env_read", "os.environ")
        return None
    if not isinstance(node, ast.Call):
        return None
    if isinstance(node.func, ast.Name) and node.func.id == "hash":
        return ("builtin_hash", "hash")
    dotted = dotted_name(node.func)
    if dotted is None:
        return None
    if dotted in WALL_CLOCK_CALLS:
        return ("wall_clock", dotted)
    if dotted in ("os.getenv", "os.environb.get"):
        return ("env_read", dotted)
    unseeded = not (node.args or node.keywords)
    module, _, name = dotted.rpartition(".")
    if module == "random" and (
        name in GLOBAL_RANDOM_CALLS or (name == "Random" and unseeded)
    ):
        return ("unseeded_rng", dotted)
    if dotted.startswith(("numpy.random.", "np.random.")) and (
        name not in NUMPY_RNG_CONSTRUCTORS or unseeded
    ):
        return ("unseeded_rng", dotted)
    return None


class SourceRule(Rule):
    """A shallow rule reporting one :func:`nondeterminism_source` kind."""

    kind = ""

    def message(self, detail: str) -> str:
        """The finding message for a source with this ``detail``."""
        raise NotImplementedError

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in context.nodes:
            # Only calls and attribute reads can be sources; skipping the
            # rest here saves a classifier call per node.
            if not isinstance(node, (ast.Call, ast.Attribute)):
                continue
            found = nondeterminism_source(node)
            if found is not None and found[0] == self.kind:
                yield self.finding(context, node, self.message(found[1]))


@register_rule
class WallClockRead(SourceRule):
    """D001: no wall-clock or calendar reads in deterministic code."""

    kind = "wall_clock"
    info = RuleInfo(
        code="D001",
        name="wall-clock-read",
        summary="wall-clock/calendar read inside the deterministic core",
        rationale=(
            "A RunSpec must fully determine its RunResult; reading the "
            "epoch clock makes re-runs diverge and poisons "
            "content-addressed cache entries.  Use the engine's round "
            "counter for logical time; time.perf_counter() is allowed "
            "for duration measurement."
        ),
        scopes=DETERMINISM_SCOPE,
        exempt=DETERMINISM_EXEMPT,
        example_bad='started = time.time()  # varies per run',
        example_good="elapsed = time.perf_counter() - t0  # duration only",
    )

    def message(self, detail: str) -> str:
        return (
            f"wall-clock read `{detail}()` in deterministic code; "
            "derive logical time from the engine's round counter "
            "(reprolint: disable=D001 if provably digest-irrelevant)"
        )


@register_rule
class UnseededRandomness(SourceRule):
    """D002: no global-RNG or unseeded randomness in deterministic code."""

    kind = "unseeded_rng"
    info = RuleInfo(
        code="D002",
        name="unseeded-randomness",
        summary="global or unseeded RNG inside the deterministic core",
        rationale=(
            "random.random() and friends draw from the interpreter-wide "
            "RNG whose state any import can perturb, and "
            "random.Random() with no arguments seeds itself from the "
            "OS.  Every stochastic component must draw from a "
            "random.Random(seed) derived from the spec's seed, so the "
            "same spec always replays the same run."
        ),
        scopes=DETERMINISM_SCOPE,
        exempt=DETERMINISM_EXEMPT,
        example_bad="port = random.randint(1, degree)",
        example_good="port = random.Random(spec.seed).randint(1, degree)",
    )

    def message(self, detail: str) -> str:
        if detail == "random.Random":
            return (
                "`random.Random()` without a seed self-seeds from the OS; "
                "pass a seed derived from the spec"
            )
        if detail.startswith("random."):
            return (
                f"`{detail}()` draws from the global RNG; use a "
                "random.Random(seed) instance derived from the spec seed"
            )
        return (
            f"`{detail}()` uses numpy's global RNG; construct a numpy "
            "Generator from the spec seed instead"
        )


@register_rule
class EnvironmentRead(SourceRule):
    """D003: no environment reads in deterministic code."""

    kind = "env_read"
    info = RuleInfo(
        code="D003",
        name="environment-read",
        summary="process-environment read inside the deterministic core",
        rationale=(
            "os.environ differs between machines, shells and CI runs; a "
            "read inside the simulation or digest path makes results "
            "depend on state outside the spec.  Plumb configuration "
            "through RunSpec fields instead (reprolint: disable=D003 "
            "only for reads that cannot reach a digest, e.g. cache "
            "*location* discovery)."
        ),
        scopes=DETERMINISM_SCOPE,
        exempt=DETERMINISM_EXEMPT,
        example_bad='jobs = int(os.environ.get("REPRO_JOBS", "1"))',
        example_good="jobs = spec_or_cli_argument  # explicit input",
    )

    def message(self, detail: str) -> str:
        read = detail if detail == "os.environ" else f"{detail}()"
        return (
            f"`{read}` read in deterministic code; pass configuration "
            "through the spec or CLI instead"
        )
