"""Command-line interface.

Subcommands: gen-model, sample, learn, sweep, constants.
Node indices are 0-based everywhere. Exit codes: 0 success, 1 invalid
configuration or arguments, 2 internal invariant failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import greedy, harness, model, sampling
from .harness import ExperimentConfig


def _seed(text: str) -> int:
    """argparse type of every --seed: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _n_list(text: str) -> list[int]:
    """argparse type of sweep --n-list: comma-separated integers."""
    return [int(x) for x in text.split(",") if x.strip()]


def _build_parser() -> argparse.ArgumentParser:
    d = ExperimentConfig()
    shape = argparse.ArgumentParser(add_help=False)
    shape.add_argument("--kind", default=d.kind, choices=model.LEARNABLE_KINDS)
    shape.add_argument("--n", type=int, default=d.n)
    shape.add_argument("--m", type=int, default=d.m)
    shape.add_argument("--d2", type=int, default=d.d2)
    shape.add_argument("--alpha", type=float, default=d.alpha)
    shape.add_argument("--beta", type=float, default=d.beta)
    shape.add_argument("--seed", type=_seed, default=d.seed)
    draws = argparse.ArgumentParser(add_help=False)
    draws.add_argument("--sampler", default=d.sampler, choices=sampling.SAMPLERS)
    draws.add_argument("--num-samples", type=int, default=d.num_samples)
    draws.add_argument("--burn-in", type=int, default=d.burn_in)
    draws.add_argument("--thinning", type=int, default=d.thinning)

    p = argparse.ArgumentParser(prog="rbmstruct", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-model", parents=[shape],
                       help="generate a random model and write it as JSON")
    g.add_argument("--out", required=True)

    s = sub.add_parser("sample", parents=[draws], help="draw samples from a model file")
    s.add_argument("--model", required=True, help="model JSON path")
    s.add_argument("--seed", type=_seed, default=d.seed)
    s.add_argument("--out", required=True)

    # no abbreviations, so a removed flag such as --k cannot resolve to --kind
    l = sub.add_parser("learn", parents=[shape, draws], allow_abbrev=False,
                       help="run learning trials and report recovery metrics")
    l.add_argument("--algorithm", default=d.algorithm, choices=greedy.ALGORITHMS)
    l.add_argument("--threshold", type=float, default=d.threshold,
                   help="eta (ferro) or tau (lc); default 0.02 for ferro, 0.025 for lc")
    l.add_argument("--rounds", type=int, default=d.rounds,
                   help="round budget k (ferro) or T_max (lc); default d2 + 1")
    l.add_argument("--fail-prob", type=float, default=d.fail_prob,
                   help="failure probability delta (ferro-q) or zeta (lc-q)")
    l.add_argument("--trials", type=int, default=d.trials)
    l.add_argument("--out", default=d.out, help="path prefix for .jsonl and .csv outputs")
    l.add_argument("--model-file", default=d.model_file,
                   help="use this model for every trial instead of generating one")

    w = sub.add_parser("sweep", help="argmax-query scaling sweep on synthetic oracles")
    w.add_argument("--n-list", type=_n_list, default="64,128,256,512,1024",
                   help="comma-separated ascending candidate counts")
    w.add_argument("--rho", type=float, default=0.5)
    w.add_argument("--out", default=None, help="optional CSV path for the sweep table")

    c = sub.add_parser("constants", help="print theory constants and sample bounds")
    c.add_argument("--alpha", type=float, required=True)
    c.add_argument("--beta", type=float, required=True)
    c.add_argument("--d2", type=int, default=2)
    c.add_argument("--n", type=int, default=100)
    c.add_argument("--fail-prob", type=float, default=d.fail_prob,
                   help="delta of the ferro bound and zeta of the lc bound")
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
    samples = sampling.draw(model.load_model(args.model), args.num_samples, args.sampler,
                            args.seed, args.burn_in, args.thinning)
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
    # the rows are closed-form, so one simulated search per n gives them all
    result = harness.sweep_scaling(args.n_list, trials=1, rho=args.rho, seed=0)
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
    print(harness.format_constants(args.alpha, args.beta, args.d2, args.fail_prob, args.n))
    return 0


_COMMANDS = {
    "gen-model": _cmd_gen_model,
    "sample": _cmd_sample,
    "learn": _cmd_learn,
    "sweep": _cmd_sweep,
    "constants": _cmd_constants,
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
    # RuntimeError: generate_model found no non-degenerate model for the settings;
    # OverflowError: integer settings too large for a float
    except (ValueError, OSError, RuntimeError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
