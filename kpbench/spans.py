"""Timing wrappers around calls into the program's layers.

The traced run replaces public methods of live objects with wrappers
(instance attributes shadow the class methods) that open a span on a
private :class:`repro.obs.trace.Tracer`.  The tracer is not installed
process-wide, so the program's own trace sites stay off.  Nested calls
on one thread share the root's trace id; a layer's self time is its span
minus the spans directly below it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Sequence

from repro.obs.trace import TraceEvent, Tracer
from repro.obs.trace_export import _self_times


class Wrappers:
    """Installs span wrappers on one tracer and takes them off again."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[Callable[[], None]] = []

    def wrap(self, name: str, func: Callable[..., Any]) -> Callable[..., Any]:
        span = self.tracer.span

        def traced(*args: Any, **kwargs: Any) -> Any:
            with span(name):
                return func(*args, **kwargs)

        return traced

    def install(self, obj: Any, attr: str, name: str) -> None:
        """Wrap ``obj.attr``; :meth:`uninstall` restores it."""
        original = getattr(obj, attr)
        had_own = attr in getattr(obj, "__dict__", {})
        setattr(obj, attr, self.wrap(name, original))
        if had_own:
            self._undo.append(lambda: setattr(obj, attr, original))
        else:
            self._undo.append(lambda: delattr(obj, attr))

    def install_hooks(self, hooks: list, name: str) -> None:
        """Wrap every callable in a hook list in place."""
        originals = list(hooks)
        hooks[:] = [self.wrap(name, hook) for hook in originals]
        self._undo.append(lambda: hooks.__setitem__(slice(None), originals))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def by_trace(
    events: Sequence[TraceEvent],
) -> dict[str, list[tuple[TraceEvent, float, str | None]]]:
    """``{trace id: [(event, self time in s, parent's name)]}``."""
    self_time = _self_times(events)
    names = {event.span_id: event.name for event in events}
    table: dict[str, list] = defaultdict(list)
    for event in events:
        table[event.trace_id].append(
            (event, self_time[event.span_id], names.get(event.parent_id))
        )
    return table
