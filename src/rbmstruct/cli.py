"""Command-line interface.

Subcommands: gen-model, sample, learn, sweep, constants, verify.
Node indices are 0-based everywhere. Exit codes: 0 success, 1 invalid
configuration or arguments, 2 internal invariant failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import harness, model, sampling
from .harness import ConfigError, ExperimentConfig, FitError


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rbmstruct", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-model", help="generate a random model and write it as JSON")
    g.add_argument("--kind", default="ferromagnetic",
                   choices=["ferromagnetic", "locally-consistent"])
    g.add_argument("--n", type=int, default=10)
    g.add_argument("--m", type=int, default=5)
    g.add_argument("--d2", type=int, default=3)
    g.add_argument("--alpha", type=float, default=0.4)
    g.add_argument("--beta", type=float, default=2.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)

    s = sub.add_parser("sample", help="draw samples from a model file")
    s.add_argument("--model", required=True, help="model JSON path")
    s.add_argument("--sampler", default="exact", choices=["exact", "gibbs"])
    s.add_argument("--num-samples", type=int, default=20000)
    s.add_argument("--burn-in", type=int, default=1000)
    s.add_argument("--thinning", type=int, default=10)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)

    l = sub.add_parser("learn", help="run learning trials and report recovery metrics")
    l.add_argument("--kind", default="ferromagnetic",
                   choices=["ferromagnetic", "locally-consistent"])
    l.add_argument("--n", type=int, default=10)
    l.add_argument("--m", type=int, default=5)
    l.add_argument("--d2", type=int, default=3)
    l.add_argument("--alpha", type=float, default=0.4)
    l.add_argument("--beta", type=float, default=2.0)
    l.add_argument("--seed", type=int, default=0)
    l.add_argument("--sampler", default="exact", choices=["exact", "gibbs"])
    l.add_argument("--num-samples", type=int, default=20000)
    l.add_argument("--burn-in", type=int, default=1000)
    l.add_argument("--thinning", type=int, default=10)
    l.add_argument("--algorithm", default="ferro",
                   choices=["ferro", "lc", "ferro-q", "lc-q"])
    l.add_argument("--eta", type=float, default=None)
    l.add_argument("--tau", type=float, default=None)
    l.add_argument("--k", type=int, default=None)
    l.add_argument("--t-max", type=int, default=None)
    l.add_argument("--delta", type=float, default=0.1)
    l.add_argument("--zeta", type=float, default=0.1)
    l.add_argument("--theory-defaults", action="store_true")
    l.add_argument("--trials", type=int, default=1)
    l.add_argument("--out", default=None, help="path prefix for .jsonl and .csv outputs")
    l.add_argument("--model-file", default=None,
                   help="use this model for every trial instead of generating one")

    w = sub.add_parser("sweep", help="argmax-query scaling sweep on synthetic oracles")
    w.add_argument("--n-list", default="64,128,256,512,1024",
                   help="comma-separated ascending candidate counts")
    w.add_argument("--trials", type=int, default=25)
    w.add_argument("--rho", type=float, default=0.5)
    w.add_argument("--seed", type=int, default=0)
    w.add_argument("--out", default=None, help="optional CSV path for the sweep table")

    c = sub.add_parser("constants", help="print theory constants and sample bounds")
    c.add_argument("--alpha", type=float, required=True)
    c.add_argument("--beta", type=float, required=True)
    c.add_argument("--d2", type=int, default=2)
    c.add_argument("--n", type=int, default=100)
    c.add_argument("--delta", type=float, default=0.1)
    c.add_argument("--zeta", type=float, default=0.1)

    sub.add_parser("verify", help="run the invariant battery")
    return p


def _cmd_gen_model(args) -> int:
    mdl = model.generate_model(
        args.kind, args.n, args.m, args.d2,
        model.NonDegeneracyParams(args.alpha, args.beta), seed=args.seed,
    )
    model.save_model(mdl, args.out)
    graph = model.two_hop_graph(mdl)
    print(f"wrote {args.out}: n={mdl.n} m={mdl.m} kind={mdl.kind} "
          f"edges={len(graph.edges)} d2={graph.max_degree}")
    return 0


def _cmd_sample(args) -> int:
    mdl = model.load_model(args.model)
    if args.sampler == "exact":
        samples = sampling.exact_sample(mdl, args.num_samples, seed=args.seed)
    else:
        cfg = sampling.GibbsConfig(burn_in=args.burn_in, thinning=args.thinning,
                                   seed=args.seed)
        samples = sampling.gibbs_sample(mdl, args.num_samples, cfg)
    sampling.save(samples, args.out)
    print(f"wrote {args.out}: n={samples.n} M={samples.M}")
    return 0


def _cmd_learn(args) -> int:
    config = ExperimentConfig(
        **{f.name: getattr(args, f.name) for f in dataclasses.fields(ExperimentConfig)}
    )
    metrics, _records = harness.run(config)
    print(f"trials={metrics.trials} exact_recovery={metrics.exact_recovery:.3f} "
          f"precision={metrics.edge_precision:.3f} recall={metrics.edge_recall:.3f} "
          f"raw_queries={metrics.raw_queries_mean:.1f}+-{metrics.raw_queries_stderr:.1f} "
          f"wall={metrics.wall_time:.2f}s")
    return 0


def _cmd_sweep(args) -> int:
    n_list = [int(x) for x in args.n_list.split(",") if x.strip()]
    result = harness.sweep_scaling(n_list, args.trials, rho=args.rho, seed=args.seed)
    lines = ["n,classical_mean_queries,quantum_mean_queries"]
    for n, cl, qu in result.rows:
        lines.append(f"{n},{cl!r},{qu!r}")
    table = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(table)
    print(table, end="")
    print(f"classical slope = {result.classical_slope:.4f}")
    print(f"quantum slope   = {result.quantum_slope:.4f}")
    return 0


def _cmd_constants(args) -> int:
    report = harness.calc_constants(args.alpha, args.beta, args.d2, args.n,
                                    args.delta, args.zeta)
    print(harness.format_constants(report))
    return 0


def _cmd_verify(args) -> int:
    return 0 if harness.verify() else 2


_COMMANDS = {
    "gen-model": _cmd_gen_model,
    "sample": _cmd_sample,
    "learn": _cmd_learn,
    "sweep": _cmd_sweep,
    "constants": _cmd_constants,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad flags; map to the config-error code
        return 0 if exc.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args)
    # RuntimeError: generate_model found no non-degenerate model for the settings
    except (ConfigError, FitError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
