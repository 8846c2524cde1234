"""Command-line surface: simulate scenario grids, analyze datasets, and
regenerate the reference tables.

``simulate``
    Run the scenarios in a JSON config; one CSV row per scenario with a
    rejection-proportion column per method.
``analyze``
    Fit a family of marginal models to a subject-level CSV (with no
    arguments, the packaged AVERROES count table) and write the
    ``mmm.infer`` report as text, JSON and an optional forest SVG.
``tables``
    Re-simulate a table or the power claims registered in ``tables``, or
    recompute the case study, and print published-vs-computed values with
    a tolerance verdict.

File-writing runs leave a ``<output>.manifest.json`` next to the primary
output recording the resolved configuration, seed, package version, output
paths and wall time, so any artifact can be regenerated from its manifest.
Exit codes: 0 success, 1 invalid input, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import multiprocessing
import os
import sys
import time
from dataclasses import replace

from . import __version__
from .casestudy import analyze as analyze_averroes
from .casestudy import load_averroes
from .errors import (
    IncompatibleMethod,
    InconsistentTotals,
    MmmInferError,
    SchemaError,
)
from .forest import forest_svg
from .linmodels import ModelSpec, fit, read_dataset
from .mmm import ALTERNATIVES, DF_MODES, infer
from .mvdist import QuadratureSettings
from .simulate import (
    METHODS,
    Scenario,
    load_scenarios,
    paired_gain,
    power_cells,
    run,
)
from .tables import (
    CASE_STUDY_TOLERANCES,
    LEVEL_METHODS,
    POWER_CLAIMS,
    PUBLISHED_COLUMN,
    TABLE_DESIGNS,
    cell_tolerance,
    published_rows,
)

__all__ = ["main"]

_VALIDATION_ERRORS = (
    SchemaError,
    InconsistentTotals,
    IncompatibleMethod,
    ValueError,
    OSError,
    json.JSONDecodeError,
)

class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the validation code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _replications(text) -> int:
    """A ``--reps`` value: a positive integer."""
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _jobs() -> int:
    raw = os.environ.get("MMMINFER_JOBS", "1")
    try:
        jobs = int(raw)
    except ValueError:
        raise SchemaError(f"MMMINFER_JOBS must be an integer, got {raw!r}") from None
    if jobs < 1:
        raise SchemaError(f"MMMINFER_JOBS must be positive, got {jobs}")
    return jobs


def _run_task(task):
    """``run`` of one ``(scenario, methods, alpha)`` task; a module-level
    function, so worker processes can unpickle it."""
    scenario, methods, alpha = task
    return run(scenario, methods=methods, alpha=alpha)


def _run_all(scenarios, methods, alpha):
    """Yield each scenario's result in order, as soon as it is done.

    ``methods`` holds one method list per scenario (None for every
    applicable method).
    """
    jobs = _jobs()
    tasks = zip(scenarios, methods, itertools.repeat(alpha))
    if jobs == 1 or len(scenarios) == 1:
        yield from map(_run_task, tasks)
        return
    with multiprocessing.Pool(min(jobs, len(scenarios))) as pool:
        yield from pool.imap(_run_task, tasks)


def _write_manifest(primary_path, subcommand, config, seed, outputs, started, **extra):
    """Write ``<primary_path>.manifest.json``; ``extra`` fields follow the
    outputs, before the wall time."""
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "seed": seed,
        "version": __version__,
        "outputs": [str(p) for p in outputs],
        **extra,
    }
    manifest["wall_time"] = round(time.perf_counter() - started, 3)
    path = f"{primary_path}.manifest.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
        handle.write("\n")
    return path


def cmd_simulate(args) -> int:
    started = time.perf_counter()
    scenarios = load_scenarios(args.config)
    if args.reps is not None:
        scenarios = [replace(s, replications=args.reps) for s in scenarios]
    if args.seed is not None:
        scenarios = [replace(s, seed=args.seed) for s in scenarios]
    results = list(_run_all(scenarios, [args.methods] * len(scenarios), args.alpha))

    columns = [m for m in METHODS if any(m in r.rejections for r in results)]
    fields = (
        "total_n",
        "prop_target",
        "sd",
        "delta",
        "endpoints",
        "rho",
        "overlap",
        "family",
        "replications",
        "seed",
    )
    lines = [",".join(fields + tuple(columns))]
    for result in results:
        cfg = result.scenario.to_dict()
        row = [f"{cfg[f]:g}" if isinstance(cfg[f], float) else str(cfg[f]) for f in fields]
        row += [
            f"{result.proportion(m):.6g}" if m in result.rejections else ""
            for m in columns
        ]
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        seeds = sorted({s.seed for s in scenarios})
        manifest = _write_manifest(
            args.out,
            "simulate",
            {
                "scenarios": [s.to_dict() for s in scenarios],
                "methods": list(args.methods) if args.methods else None,
                "alpha": args.alpha,
            },
            seeds[0] if len(seeds) == 1 else seeds,
            [args.out],
            started,
            # per scenario, in config order: sqrt(p (1 - p) / replications)
            monte_carlo_se=[
                {m: result.standard_error(m) for m in result.methods} for result in results
            ],
            # per scenario: each mmm method's decisions per rung of its ladder
            mmm_decisions=[
                {m: dict(c) for m, c in result.mmm_decisions.items()} for result in results
            ],
        )
        print(f"wrote {args.out} and {manifest}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _read_model_config(path):
    with open(path, encoding="utf-8") as handle:
        raw = json.load(handle)
    if not isinstance(raw, dict):
        raise SchemaError("model config must be a JSON object")
    unknown = set(raw) - {"models", "subgroups", "reference_level"}
    if unknown:
        raise SchemaError(f"unknown model config fields: {sorted(unknown)}")
    entries = raw.get("models")
    if not isinstance(entries, list) or not entries:
        raise SchemaError('model config needs a non-empty "models" list')
    # a string would split into one-letter column names
    subgroups = raw.get("subgroups", [])
    if not isinstance(subgroups, list) or not all(isinstance(s, str) for s in subgroups):
        raise SchemaError('model config "subgroups" must be a list of column names')
    # treatment levels are read from the CSV as text, so a number matches none
    if not isinstance(raw.get("reference_level", ""), str):
        raise SchemaError('model config "reference_level" must be a string')
    return raw


def cmd_analyze(args) -> int:
    started = time.perf_counter()
    settings = QuadratureSettings()
    if args.data is None:
        for flag, name in (
            (args.specs, "a model config"),
            (args.alternative, "--alternative"),
            (args.df_mode, "--df-mode"),
        ):
            if flag is not None:
                raise SchemaError(
                    f"{name} only applies when analyzing a dataset; the "
                    "packaged case study fixes its own models"
                )
        report = analyze_averroes(load_averroes(), alpha=args.alpha, settings=settings)
    else:
        if args.specs is None:
            raise SchemaError("analyzing a dataset needs a model config JSON")
        config = _read_model_config(args.specs)
        alternative = args.alternative or "two-sided"
        df_mode = args.df_mode or "normal"
        data = read_dataset(
            args.data,
            subgroup_columns=config.get("subgroups", ()),
            reference_level=config.get("reference_level"),
        )
        try:
            specs = [ModelSpec(**entry) for entry in config["models"]]
        except TypeError as exc:
            raise SchemaError(f"bad model entry: {exc}") from None
        models = [fit(data, spec) for spec in specs]
        report = infer(
            models,
            f"Simultaneous inference: {os.path.basename(args.data)}",
            args.alpha,
            alternative,
            df_mode,
            settings,
        )

    if args.out is None:
        if args.forest:
            raise SchemaError("--forest needs --out to know where to write")
        sys.stdout.write(report.to_text() + "\n")
        return 0

    contents = {
        f"{args.out}.txt": report.to_text() + "\n",
        f"{args.out}.json": report.to_json() + "\n",
    }
    if args.forest:
        # rendered before any file is written, so a report the plot
        # refuses (mixed odds-ratio and difference rows) leaves nothing
        contents[f"{args.out}.svg"] = forest_svg(report, method="mmm")
    for path, content in contents.items():
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content)
    outputs = list(contents)
    manifest = _write_manifest(
        args.out,
        "analyze",
        {
            "data": args.data or "averroes",
            "specs": args.specs,
            "alpha": args.alpha,
            "alternative": report.alternative,
            "df_mode": report.df_mode,
        },
        report.seed,
        outputs,
        started,
    )
    print(f"wrote {', '.join(outputs)} and {manifest}", file=sys.stderr)
    return 0


def cmd_tables(args) -> int:
    if args.which == "a2":
        return _case_study_report(args)
    if args.reps < 2000:
        print(f"note: {args.reps} replications per cell; low precision", flush=True)
    if args.which == "power":
        return _power_report(args)
    design = dict(TABLE_DESIGNS[args.which])
    published = design.pop("published")
    level_only = design.pop("level_only", False)
    rows = published_rows(published)
    if level_only:
        print(
            f"note: {published} repeats another family's rates; checking "
            f"level control only ({', '.join(LEVEL_METHODS)})"
        )
    print(
        f"{args.which}: published vs simulated FWER "
        f"({args.reps} replications per cell, seed {args.seed})"
    )
    header = f"{'N':>5} {'prop':>5} {'method':<12} {'published':>9} "
    header += f"{'simulated':>9} {'diff':>8} {'tol':>7} ok"
    print(header)
    scenarios = [
        Scenario(
            total_n=int(row["N"]),
            prop_target=float(row["prop_targ"]),
            sd=5.0,
            replications=args.reps,
            seed=args.seed,
            **design,
        )
        for row in rows
    ]
    good = total = 0
    methods = LEVEL_METHODS if level_only else None
    results = _run_all(scenarios, [methods] * len(scenarios), 0.05)
    for row, result in zip(rows, results):
        for method in result.methods:
            if level_only:
                target = 0.05
            else:
                target = float(row[PUBLISHED_COLUMN.get(method, method)])
            shown = f"{'<=' if level_only else ''}{target:.4f}"
            simulated = result.proportion(method)
            diff = simulated - target
            tol = cell_tolerance(target, args.reps)
            ok = diff <= tol if level_only else abs(diff) <= tol
            good += ok
            total += 1
            print(
                f"{row['N']:>5.0f} {row['prop_targ']:>5.2f} {method:<12} "
                f"{shown:>9} {simulated:>9.4f} {diff:>+8.4f} {tol:>7.4f} "
                f"{'yes' if ok else 'NO'}"
            )
    print(f"{good}/{total} cells within tolerance")
    return 0


def _case_study_report(args) -> int:
    report = analyze_averroes(load_averroes(), settings=QuadratureSettings(seed=args.seed))
    published = {
        (row["group"], row["endpoint"]): row for row in published_rows("a2_inference")
    }
    print(
        f"a2: published vs computed case-study inference "
        f"(seed {args.seed}; --reps does not apply)"
    )
    line = "{:<6} {:<9} {:<17} {:>9} {:>9} {:>8} {:>7} {}"
    print(line.format("group", "endpoint", "cell", "published", "computed", "diff", "tol", "ok"))
    good = total = 0
    for row in report.rows:
        group = row.group.split(" ")[0]  # "S1 (TIA)" is "S1" in the table
        expected = published[(group, row.endpoint)]
        computed = {"odds_ratio": row.display_estimate()}
        for method, cell in row.methods.items():
            computed[f"{method}_lower"] = row.display_bound(cell.ci_lower)
            computed[f"{method}_p"] = min(cell.p, 1.0)
        cells = []
        for column, tol in CASE_STUDY_TOLERANCES.items():
            want, got = expected[column], computed[column]
            cells.append(
                (column, f"{want:.4f}", f"{got:.4f}", f"{got - want:+.4f}", f"{tol:.4f}",
                 abs(got - want) <= tol)
            )
        # the published decisions are the published p-values at alpha
        for method, cell in row.methods.items():
            want = expected[f"{method}_p"] <= report.alpha
            cells.append(
                (f"{method}_reject", ("accept", "reject")[want],
                 ("accept", "reject")[cell.rejected], "", "", want == cell.rejected)
            )
        for *fields, ok in cells:
            good += ok
            total += 1
            print(line.format(group, row.endpoint, *fields, "yes" if ok else "NO"))
    print(f"{good}/{total} cells within tolerance")
    return 0


def _power_report(args) -> int:
    print(
        f"power gains: published vs simulated "
        f"({args.reps} replications per cell, seed {args.seed})"
    )
    width = max(len(c["label"]) for c in POWER_CLAIMS)
    print(f"{'claim':<{width}} {'published':>10} {'simulated':>10} {'diff':>9} ok")
    # every claim's cells go to one _run_all call, each running its pair
    claims, scenarios, methods = [], [], []
    for claim in POWER_CLAIMS:
        claim = dict(claim)
        label = claim.pop("label")
        target = claim.pop("published")
        at_least = claim.pop("at_least", False)
        pair = [claim.pop("baseline"), claim.pop("method")]
        cells = power_cells(replications=args.reps, seed=args.seed, **claim)
        claims.append((label, target, at_least, pair, len(cells)))
        scenarios += cells
        methods += [pair] * len(cells)
    results = _run_all(scenarios, methods, 0.05)
    good = 0
    for label, target, at_least, pair, n_cells in claims:
        gain = paired_gain(itertools.islice(results, n_cells), *pair)
        tol = cell_tolerance(0.1, args.reps)
        shown = f"{'>=' if at_least else ''}{100 * target:.2f}pp"
        if at_least:
            ok = gain >= target - tol
        else:
            ok = abs(gain - target) <= tol
        good += ok
        print(
            f"{label:<{width}} {shown:>10} {100 * gain:>8.2f}pp "
            f"{100 * (gain - target):>+7.2f}pp {'yes' if ok else 'NO'}"
        )
    print(f"{good}/{len(POWER_CLAIMS)} gains within tolerance (pp = percentage points)")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mmminfer",
        description="Simultaneous inference over subgroups and endpoints.",
    )
    parser.add_argument("--version", action="version", version=f"mmminfer {__version__}")
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sim = commands.add_parser("simulate", help="run a JSON grid of scenarios")
    sim.add_argument("config", help="scenario JSON (a list or {'scenarios': [...]})")
    sim.add_argument(
        "--reps", type=_replications, default=None, help="override replications"
    )
    sim.add_argument("--seed", type=int, default=None, help="override every seed")
    sim.add_argument(
        "--methods",
        nargs="+",
        default=None,
        metavar="METHOD",
        help=f"subset of {', '.join(METHODS)} (default: all applicable)",
    )
    sim.add_argument("--alpha", type=float, default=0.05)
    sim.add_argument("--out", default=None, help="CSV path (default: stdout)")
    sim.set_defaults(handler=cmd_simulate)

    ana = commands.add_parser(
        "analyze", help="simultaneous inference for a dataset (default: AVERROES)"
    )
    ana.add_argument("data", nargs="?", default=None, help="subject-level CSV")
    ana.add_argument("specs", nargs="?", default=None, help="model config JSON")
    ana.add_argument("--alpha", type=float, default=0.05)
    ana.add_argument("--alternative", choices=ALTERNATIVES, default=None)
    ana.add_argument("--df-mode", choices=DF_MODES, default=None)
    ana.add_argument("--out", default=None, help="output prefix for .txt/.json")
    ana.add_argument(
        "--forest", action="store_true", help="also write <out>.svg forest plot"
    )
    ana.set_defaults(handler=cmd_analyze)

    tab = commands.add_parser(
        "tables", help="compare published tables against fresh simulations"
    )
    tab.add_argument(
        "--which",
        choices=("a2",) + tuple(TABLE_DESIGNS) + ("power",),
        required=True,
        help="a2 recomputes the case study; the others re-simulate",
    )
    tab.add_argument(
        "--reps",
        type=_replications,
        default=10_000,
        help="replications per simulated cell (does not apply to a2)",
    )
    tab.add_argument("--seed", type=int, default=20150436)
    tab.set_defaults(handler=cmd_tables)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _VALIDATION_ERRORS as exc:
        print(f"mmminfer: error: {exc}", file=sys.stderr)
        return 1
    except (MmmInferError, FloatingPointError) as exc:
        print(f"mmminfer: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
