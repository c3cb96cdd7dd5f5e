"""Run one workload, print its metrics, end with the JSON result line."""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.obs.trace_export import write_jsonl

from kpbench import build, catalog, read, write
from kpbench.common import ROOT, Config, Outcome, peak_rss_mb, remove_scratch

RUNNERS = {"build": build.run, "read": read.run, "write": write.run}
SPAN_DIR = ROOT / ".kpbench_out"


def measure(workload: str, seed: int, config: Config, traced: bool) -> Outcome:
    """Run ``workload`` and complete its metric sets.

    Per-layer metrics of layers the workload does not exercise read 0.
    """
    try:
        out = RUNNERS[workload](seed, config, traced)
    finally:
        remove_scratch()
    out.e2e["peak_rss_mb"] = peak_rss_mb()
    if traced:
        for name, *_ in catalog.PER_LAYER:
            out.layers.setdefault(name, 0.0)
    return out


def result_line(out: Outcome, traced: bool) -> dict:
    names = catalog.PER_LAYER if traced else catalog.END_TO_END
    values = out.layers if traced else out.e2e
    return {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": catalog.UNITS[name]}
            for name, *_ in names
        },
    }


def print_report(workload: str, out: Outcome, traced: bool) -> None:
    for name, value, unit in out.report:
        print(f"{workload}: {name} = {value:.6g} {unit}")
    for name, unit, *_ in catalog.END_TO_END:
        print(f"{workload}: e2e {name} = {out.e2e[name]:.6g} {unit}")
    rate = out.failed / max(1, out.attempted)
    print(f"{workload}: error_rate = {rate:.6g} ratio "
          f"({out.failed} of {out.attempted})")
    if traced:
        for name, unit, _, where, moves in catalog.PER_LAYER:
            print(f"{workload}: layer {name} = {out.layers[name]:.6g} {unit}"
                  f"  [moves {moves} on {where}]")
    for error in out.errors:
        print(f"{workload}: FAILED {error}")


def provenance() -> dict:
    """Provenance of the run; git looks no higher than the checkout."""
    from repro.bench.provenance import run_provenance

    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    return run_provenance()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="kpbench", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    traced = bool(args.trace)

    if traced:
        print(f"provenance: {json.dumps(provenance(), sort_keys=True)}")
    out = measure(args.workload, args.seed, Config(seconds=args.seconds), traced)
    print_report(args.workload, out, traced)
    if out.spans:
        SPAN_DIR.mkdir(exist_ok=True)
        path = SPAN_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl"
        write_jsonl(path, out.spans)
        print(f"{args.workload}: spans written to {path.relative_to(ROOT)}")
    sys.stdout.flush()
    print(json.dumps(result_line(out, traced)))
    return 0 if out.failed == 0 else 1
