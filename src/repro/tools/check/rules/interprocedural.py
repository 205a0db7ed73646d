"""Whole-program rules: SFL013 (transitive wall-clock taint), SFL014
(graph escaping into a mutating callee), SFL015 (uncaught handler
escapes).

These are :class:`~repro.tools.check.base.ProjectRule` subclasses: they
run once per analysis over the cross-module
:class:`~repro.tools.check.dataflow.ProjectAnalysis` rather than
per-file, and exist precisely to catch the launderings the SFL001-SFL012
per-file heuristics provably miss -- a wall clock hidden behind a helper
in another module, a graph handed to a mutating helper in the
graph-defining modules, an exception four calls deep under a DES
handler.
"""

from __future__ import annotations

from typing import Iterator

from repro.tools.check.base import ProjectRule, Violation
from repro.tools.check.dataflow import (
    ProjectAnalysis,
    WALL_CLOCK_BOUNDARY,
    _in_packages,
)
from repro.tools.check.vocab import GRAPH_DEFINING_MODULES

#: Packages whose results must stay a pure function of the DES clock.
SIM_PURE_PACKAGES = ("repro.sim", "repro.core")


class TransitiveWallClock(ProjectRule):
    """No laundered wall clocks reaching ``repro.sim``/``repro.core``.

    SFL001 catches ``time.perf_counter()`` written *in* sim/core; this
    rule follows the call graph: a sim/core function calling a helper --
    in any module -- that transitively performs a host-clock read taints
    simulated results exactly the same way.  Calls into ``repro.obs``
    stay clean (the injectable Stopwatch boundary), and taint whose
    origin is itself inside sim/core is SFL001's jurisdiction (flagged or
    explicitly waived there), so this rule reports only the cross-module
    laundering the per-file pass cannot see.
    """

    code = "SFL013"
    summary = "call chain smuggles a wall-clock read into repro.sim/repro.core"

    def check_project(self, analysis: ProjectAnalysis) -> Iterator[Violation]:
        index = analysis.index
        for fn in index.iter_functions():
            if not _in_packages(fn.module, SIM_PURE_PACKAGES):
                continue
            for site in fn.calls:
                target = index.resolve_call(fn, site)
                if target is None or target.qname == fn.qname:
                    continue
                if _in_packages(target.module, WALL_CLOCK_BOUNDARY):
                    continue
                witness = analysis.wall_clock.get(target.qname)
                if witness is None:
                    continue
                if _in_packages(witness.origin_module, SIM_PURE_PACKAGES):
                    continue  # the origin is SFL001's (adjudicated) domain
                yield Violation(
                    path=fn.path,
                    line=site.line,
                    col=site.col,
                    code=self.code,
                    message=(
                        f"{site.terminal}() transitively performs {witness.origin} "
                        f"(call chain {witness.render_chain()}); host time must "
                        "not leak into repro.sim/repro.core -- inject a "
                        "repro.obs.clock.Stopwatch at the boundary instead"
                    ),
                )


class EscapedGraphMutation(ProjectRule):
    """Graphs must not escape into epoch-undisciplined mutating callees.

    SFL004 exempts the graph-defining modules (their methods mutate
    ``self`` by definition) and trusts each function in isolation.  The
    blind spot: a caller passes a *pre-existing*, oracle-tracked graph
    into a helper that lives in an exempt module and mutates the
    corresponding parameter -- no per-file rule fires anywhere, yet
    cached trees silently go stale.  This rule matches caller arguments
    to callee parameters across the call graph and fires at the escape
    site when neither side invalidates.  Graphs freshly constructed in
    the caller stay exempt (initialisation-by-helper is the sanctioned
    build pattern).
    """

    code = "SFL014"
    summary = "pre-existing graph escapes into a mutating callee, no invalidation"

    def check_project(self, analysis: ProjectAnalysis) -> Iterator[Violation]:
        index = analysis.index
        for fn in index.iter_functions():
            if not fn.module.startswith("repro."):
                continue
            if fn.module in GRAPH_DEFINING_MODULES or fn.has_invalidator:
                continue
            for site in fn.calls:
                target = index.resolve_call(fn, site)
                if target is None or target.module not in GRAPH_DEFINING_MODULES:
                    continue
                if target.has_invalidator or not target.mutated_params:
                    continue
                params = target.params
                offset = 1 if params[:1] in (["self"], ["cls"]) else 0
                for pos, arg in enumerate(site.arg_names):
                    if arg is None or arg in fn.fresh_names:
                        continue
                    pidx = pos + offset
                    if pidx >= len(params):
                        continue
                    param = params[pidx]
                    mutations = target.mutated_params.get(param)
                    if not mutations:
                        continue
                    mutator = mutations[0][0]
                    yield Violation(
                        path=fn.path,
                        line=site.line,
                        col=site.col,
                        code=self.code,
                        message=(
                            f"{site.terminal}({arg}, ...) hands a pre-existing "
                            f"graph to {target.qname}(), which mutates "
                            f"{param}.{mutator}(...) without RouteOracle "
                            "derive/invalidate on either side; the "
                            "per-file epoch rule cannot see this escape -- "
                            "invalidate in the caller or the callee"
                        ),
                    )
                    break  # one finding per call site is enough


class HandlerEscape(ProjectRule):
    """DES handlers must not leak explicit raises to the kernel.

    A DES handler is a generator handed to ``env.process(...)`` or a
    callable handed to ``<mailbox>.serve(...)``.  Both run under the
    engine's ``handler_failed`` accounting, which converts an escaped
    exception into an event failure and an ``engine.handler_error`` count
    -- the chaos CI gate then fails the build.  A handler that can reach an
    explicit, ``try``-unshielded ``raise`` (its own, or transitively
    through unshielded call sites in any module) is therefore a latent
    gate failure: under the right fault timing the session dies instead
    of reaching a terminal FAILED/DEGRADED state.  Defensive raises
    inside the kernel itself (``repro.sim.engine``) and the shared error
    types are exempt; handlers that intentionally fail hard carry a
    justified suppression on their ``def`` line naming the site that
    catches what escapes.
    """

    code = "SFL015"
    summary = "DES handler can let an explicit raise escape uncaught"

    def check_project(self, analysis: ProjectAnalysis) -> Iterator[Violation]:
        index = analysis.index
        for handler_qname in sorted(analysis.handlers):
            handler = index.functions[handler_qname]
            if not handler.module.startswith("repro."):
                continue  # test harnesses spawn raising handlers on purpose
            witness = analysis.may_raise.get(handler_qname)
            if witness is None:
                continue
            spawner, spawn_line, _spawn_col = analysis.handlers[handler_qname][0]
            yield Violation(
                path=handler.path,
                line=handler.line,
                col=handler.col,
                code=self.code,
                message=(
                    f"DES handler {handler.name}() (spawned by {spawner} "
                    f"at line {spawn_line}) can let '{witness.origin}' escape "
                    f"uncaught (call chain {witness.render_chain()}); the "
                    "engine would convert it into engine.handler_error and "
                    "the session would never reach a terminal state -- catch "
                    "it in the handler or fail the session explicitly"
                ),
            )
