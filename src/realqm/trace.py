"""Opt-in stage timings on stderr.

With the environment variable REALQM_TRACE set to 1 when the package is
imported, each `span` writes one JSON line to stderr as it closes: the span
name, its wall seconds and its fields.  Otherwise `span` does nothing but
enter and leave a shared no-op context, so an untraced run pays a call per
stage.  Stdout is never touched.  Spans nest: an inner span closes, and is
written, before the span around it.

    with span("state", dim=4) as fields:
        ...
        fields["physical"] = True  # fields known only at the end of the stage
"""

from __future__ import annotations

import json
import os
import sys
import time

__all__ = ["ENABLED", "span"]

ENABLED = os.environ.get("REALQM_TRACE") == "1"


class _Span:
    __slots__ = ("name", "fields", "start")

    def __init__(self, name: str, fields: dict) -> None:
        self.name = name
        self.fields = fields

    def __enter__(self) -> dict:
        self.start = time.perf_counter()
        return self.fields

    def __exit__(self, *exc) -> None:
        seconds = time.perf_counter() - self.start
        sys.stderr.write(json.dumps({"span": self.name, "seconds": seconds, **self.fields}) + "\n")


class _Off:
    __slots__ = ()

    def __enter__(self) -> dict:
        return {}  # a fresh dict: what a stage records is dropped

    def __exit__(self, *exc) -> None:
        pass


_OFF = _Off()


def span(name: str, **fields):
    """A context that, with tracing on, writes {"span": name, "seconds": s,
    **fields} to stderr when it closes, also when its body raises.  It yields
    the fields dict, so a stage can add what it learns before it closes."""
    return _Span(name, fields) if ENABLED else _OFF
