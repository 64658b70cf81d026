"""Span recording around the public calls into each layer of the server.

Installed only in the traced server child (see ``serve_shim.py``). Every
wrapper records ``(id, name, start, end, parent, op, extra)`` in memory:
``parent`` is the enclosing span on the same thread and ``op`` the
``(type, request_id)`` of the message being served. The benchmark keeps one
request in flight, so the last decoded message identifies the request every
later span belongs to until the next one is decoded. Spans are written out
only after the server stops.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from typing import Any, Callable

#: span name → (module, attribute path) of the public callable it wraps.
TARGETS: dict[str, tuple[str, str]] = {
    "service.decode": ("repro.service.protocol", "decode_message"),
    "service.encode": ("repro.service.protocol", "encode_message"),
    "service.submit_from_message": ("repro.service.protocol", "submit_from_message"),
    "engine.view": ("repro.engine.core", "EmbeddingEngine.view"),
    "engine.commit": ("repro.engine.core", "EmbeddingEngine.commit"),
    "engine.release": ("repro.engine.core", "EmbeddingEngine.release"),
    "solvers.solve": ("repro.service.server", "solve_on_view"),
    "constraints.check": ("repro.constraints.base", "ConstraintSet.check"),
    "wal.append": ("repro.wal.log", "WalWriter.append_record"),
    "wal.sync": ("repro.wal.log", "WalWriter.sync"),
    "setup.substrate": ("repro.cli", "generate_network"),
    "setup.start": ("repro.service.server", "EmbeddingServer.start"),
}

#: ``EmbeddingResult.stats`` keys copied onto each solve span.
SOLVE_STATS = ("escalations", "forward_expansions", "tree_size", "constraint_rounds")


class Tracer:
    """In-memory span recorder shared by every wrapper in one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[Any, ...]] = []
        self.op: tuple[str, int | None] | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """A recording wrapper around ``fn`` (async functions stay async)."""
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                start = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self.spans.append(
                        (next(self._ids), name, start, time.perf_counter(), None, None, None)
                    )

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            parent = stack[-1] if stack else None
            if name == "constraints.check" and (parent is None or parent[1] != "engine.commit"):
                # Only the commit-time check is its own layer; the solver's
                # verify loop stays inside the solve span.
                return fn(*args, **kwargs)
            span_id = next(self._ids)
            stack.append((span_id, name))
            result: Any = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = None
                if name == "service.decode" and isinstance(result, dict):
                    self.op = (str(result.get("type")), result.get("request_id"))
                elif name == "solvers.solve" and result is not None:
                    extra = {key: result.stats[key] for key in SOLVE_STATS if key in result.stats}
                self.spans.append(
                    (span_id, name, start, end, parent[0] if parent else None, self.op, extra)
                )

        return wrapper

    def install(self) -> None:
        """Replace every :data:`TARGETS` callable with its recording wrapper."""
        for name, (module_name, path) in TARGETS.items():
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def dump(self, path: str, **extra: Any) -> None:
        """Write the recorded spans (plus ``extra`` fields) as one JSON file."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, **extra}, fh)
