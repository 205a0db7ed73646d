"""Whole-program rule SFL015: uncaught DES-handler escapes.

A :class:`~repro.tools.check.base.ProjectRule` runs once per analysis
over the cross-module :class:`~repro.tools.check.dataflow.ProjectAnalysis`
rather than per file: an exception four calls deep under a DES handler,
in another module, is invisible to any per-file pass.
"""

from __future__ import annotations

from typing import Iterator

from repro.tools.check.base import ProjectRule, Violation
from repro.tools.check.dataflow import ProjectAnalysis


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
