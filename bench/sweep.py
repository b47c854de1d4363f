"""Design-sweep query server and answer checking.

A query is one (Table 1 SoC number, target channel count) pair.  The
answer is the strategy comparison of ``repro.core.explorer.explore``
followed by the Fig. 12 ladder of
``repro.core.optimizations.evaluate_ladder`` for the SoC scaled to the
1024-channel standard.

Run the server as ``python -m bench.sweep [--trace DIR]``: it imports
the public API, prints ``ready``, then reads one JSON ``[soc, n]``
query per line from stdin and writes one JSON answer per line, until
stdin closes.  With ``--trace`` it records per-layer spans
(:mod:`bench.traced`) into ``DIR``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from typing import Any

#: Wireless Table 1 designs (the explorer's domain).
SOCS = range(1, 9)

#: Target channels are ``CHANNEL_STEP * k`` for k in ``CHANNEL_UNITS``.
CHANNEL_STEP = 64
CHANNEL_UNITS = range(16, 257)

#: Significant digits an answer's floats are compared at.
DIGITS = 12


def all_queries() -> list[tuple[int, int]]:
    """Every query the generator can draw."""
    return [(soc, CHANNEL_STEP * k) for soc in SOCS for k in CHANNEL_UNITS]


def draw_queries(rng: random.Random, count: int) -> list[tuple[int, int]]:
    """``count`` queries drawn uniformly from :func:`all_queries`."""
    return [(rng.choice(SOCS), CHANNEL_STEP * rng.choice(CHANNEL_UNITS))
            for _ in range(count)]


def query_key(query: tuple[int, int]) -> str:
    return f"{query[0]}:{query[1]}"


def _canonical(value: Any) -> Any:
    if isinstance(value, float):
        return format(value, f".{DIGITS}g")
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def digest(answer: list) -> str:
    """Short content hash of an answer, floats rounded to ``DIGITS``."""
    text = json.dumps(_canonical(answer), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def answer(soc_number: int, n_channels: int) -> list:
    """The design answer for one query, as JSON-able rows."""
    from repro.core import explorer, optimizations, scaling, socs

    soc = scaling.scale_to_standard(socs.soc_by_number(soc_number))
    report = explorer.explore(soc, target_channels=n_channels)
    ladder = optimizations.evaluate_ladder(soc, n_channels)
    return ([[o.strategy, o.max_channels, o.power_ratio_at_target]
             for o in report.outcomes]
            + [[d.step_name, d.active_channels, d.model_size_fraction]
               for d in ladder])


def serve(stdin, stdout) -> None:
    """Answer queries line by line until ``stdin`` closes."""
    for line in stdin:
        soc_number, n_channels = json.loads(line)
        stdout.write(json.dumps(answer(soc_number, n_channels)) + "\n")
        stdout.flush()


def main(argv: list[str]) -> int:
    tracer = None
    os.environ.pop("PYTHONPROFILEIMPORTTIME", None)  # see bench.traced
    if argv[:1] == ["--trace"] and len(argv) == 2:
        from bench.traced import Tracer
        tracer = Tracer(argv[1])
    elif argv:
        print("usage: python -m bench.sweep [--trace DIR]", file=sys.stderr)
        return 2
    # Load the API before reporting ready: import is set-up time.
    from repro.core import explorer, optimizations, scaling, socs  # noqa: F401

    if tracer is not None:
        tracer.install()
    print("ready", flush=True)
    try:
        serve(sys.stdin, sys.stdout)
    finally:
        if tracer is not None:
            tracer.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
