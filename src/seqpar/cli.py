"""Command-line interface.

    seqpar train  --engine sharded --workers 2 --steps 200 --out runs/demo
    seqpar verify --engines sharded,baseline,hybrid --workers 1,2,4
    seqpar cost   --seq-len 348 --workers 6 [--weak-scaling]
    seqpar report runs/demo

Flags mirror the run-config fields.  ``--config FILE`` loads a JSON run
config (same keys as the flags, model fields nested under "model") whose
values override any flags, and an error in a value it sets names the file;
the ``SEQPAR_OUTPUT_DIR`` environment variable overrides the output
directory last.  Any engine error exits nonzero, and
so does ``report`` when a measured figure of the run differs from its
estimate.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import costs, grid, optim, reporting, runner, tensor
from .model import ModelConfig, check_config_dict
from .runner import RunConfig


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    m = runner.default_model()
    g = p.add_argument_group("model")
    g.add_argument("--embed-dim", type=int, default=m.embed_dim)
    g.add_argument("--layers", type=int, default=m.n_layers)
    g.add_argument("--heads", type=int, default=m.n_heads)
    g.add_argument("--ff-dim", type=int, default=m.ff_dim)
    g.add_argument("--vocab", type=int, default=m.vocab)
    g.add_argument("--seq-len", type=int, default=m.seq_len)
    g.add_argument("--batch", type=int, default=m.batch)
    g.add_argument("--dropout", type=float, default=m.dropout)
    g.add_argument("--precision", choices=tuple(tensor.DTYPES), default=m.precision)


def _model_flags(args) -> dict:
    """The model flags as model-config keys, not yet range-checked."""
    return dict(
        embed_dim=args.embed_dim, n_layers=args.layers, n_heads=args.heads,
        ff_dim=args.ff_dim, vocab=args.vocab, seq_len=args.seq_len,
        batch=args.batch, dropout=args.dropout, precision=args.precision,
    )


def _model_from(args) -> ModelConfig:
    return ModelConfig(**_model_flags(args))


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x.strip())


def _config_overrides(text: str) -> dict:
    """A ``--config`` file's run config, its keys and value types checked."""
    overrides = json.loads(text)
    check_config_dict(RunConfig, overrides, "run-config")
    check_config_dict(ModelConfig, overrides.get("model", {}), "model-config")
    return overrides


def _range_error(run_dict: dict) -> str | None:
    """What building ``run_dict`` into a RunConfig raises, None if it builds."""
    try:
        RunConfig.from_dict(run_dict)
    except ValueError as exc:
        return str(exc)
    return None


def _cmd_train(args) -> int:
    flags = {
        "model": _model_flags(args),  # range-checked only after the --config merge
        "engine": args.engine,
        "workers": args.workers,
        "replicas": args.replicas,
        "steps": args.steps,
        "lr": args.lr,
        "optimizer": args.optimizer,
        "seed": args.seed,
        "dataset": args.dataset,
        "synthetic_bytes": args.synthetic_bytes,
        "out_dir": args.out,
        "fused": not args.no_fuse,
        "equivalence_check": args.check,
    }
    run_dict = flags
    if args.config:
        overrides = reporting.read_text(args.config, _config_overrides)
        run_dict = {**flags, **overrides, "model": {**flags["model"], **overrides.get("model", {})}}
    try:
        rc = RunConfig.from_dict(run_dict)
    except ValueError as exc:
        if run_dict is flags or str(exc) == _range_error(flags):
            raise  # the flags alone fail this check
        raise ValueError(f"{args.config}: {exc}") from None
    result = runner.run_experiment(rc, echo=print)
    if rc.equivalence_check and not result.summary.get("equivalence_pass", True):
        return 1
    return 0


def _cmd_verify(args) -> int:
    cfg = _model_from(args)
    rows = runner.verify_equivalence(
        cfg,
        engines=tuple(args.engines.split(",")),
        workers=_int_list(args.workers),
        replicas=_int_list(args.replicas),
        steps=args.steps,
        lr=args.lr,
        seed=args.seed,
        tolerance=args.tolerance,
    )
    print(f"{'engine':<10} {'grid':>7} {'max |delta param|':>18}  result")
    for r in rows:
        grid = f"{r['replicas']}x{r['workers']}"
        print(f"{r['engine']:<10} {grid:>7} {r['max_param_delta']:>18.3e}  "
              f"{'pass' if r['pass'] else 'FAIL'}")
    return 0 if all(r["pass"] for r in rows) else 1


def _cmd_cost(args) -> int:
    cfg = _model_from(args)
    if args.weak_scaling:
        ratios = costs.weak_scaling_ratios(cfg)
        print(f"{'workers':>8} {'seq_len':>8} {'score elems/worker':>20} {'ratio':>6}")
        for (n, l), ratio in zip(costs.WEAK_SCALING_SCHEDULE, ratios):
            est = costs.estimate(replace(cfg, seq_len=l), n, "sharded")
            print(f"{n:>8} {l:>8} {est.score_elements_peak:>20} {ratio:>6}")
        return 0
    workers = _int_list(args.workers)
    if not workers:
        raise ValueError(f"no workers given in --workers {args.workers!r}")
    fused = not args.no_fuse
    for n in workers:
        est = costs.estimate(cfg, n, args.engine, fused=fused)
        print(f"engine={est.engine} workers={n} block={est.block}")
        by_rank = ""
        if args.engine in ("sharded", "hybrid"):
            flops = costs.rank_score_flops(cfg, n, args.engine)
            by_rank = f"  (busiest; by rank {flops})"
        print(f"  score flops (fwd)       {est.score_flops}{by_rank}")
        print(f"  score elements (peak)   {est.score_elements_peak}")
        print(f"  score cache bytes       {est.score_cache_bytes}")
        print(f"  projection flops (fwd)  {est.proj_flops}")
        print(f"  ffn flops (fwd)         {est.ffn_flops}")
        print(f"  head flops (fwd)        {est.head_flops}")
        print(f"  collectives per step    {est.collectives_per_step}")
        print(f"  comm elements per step  {est.comm_elements_per_step}")
        for k, v in est.complexity.items():
            print(f"  {k:<23} {v}")
    return 0


def _cmd_report(args) -> int:
    text, problems = reporting.report(args.run_dir)
    print(text, end="")
    if problems:
        print(f"error: {problems[0]}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="seqpar",
        description="Train small byte-level transformers with sequence-parallel workers.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="run one training experiment and write artifacts")
    _add_model_flags(t)
    rc = RunConfig()
    t.add_argument("--engine", choices=grid.ENGINES, default=rc.engine)
    t.add_argument("--workers", type=int, default=rc.workers, help="sequence-group size")
    t.add_argument("--replicas", type=int, default=rc.replicas,
                   help="data-parallel rows (hybrid)")
    t.add_argument("--steps", type=int, default=rc.steps)
    t.add_argument("--lr", type=float, default=rc.lr)
    t.add_argument("--optimizer", choices=optim.OPTIMIZERS, default=rc.optimizer)
    t.add_argument("--seed", type=int, default=rc.seed)
    t.add_argument("--dataset", default=rc.dataset,
                   help="byte corpus path; omit for synthetic")
    t.add_argument("--synthetic-bytes", type=int, default=rc.synthetic_bytes)
    t.add_argument("--out", default=rc.out_dir, help="output directory")
    t.add_argument("--no-fuse", action="store_true", default=not rc.fused,
                   help="gather keys and values separately (ablation)")
    t.add_argument("--check", action="store_true", default=rc.equivalence_check,
                   help="also run the sequential oracle and report max param delta")
    t.add_argument("--config", default=None, help="JSON run config; overrides flags")
    t.set_defaults(fn=_cmd_train)

    v = sub.add_parser("verify", help="oracle-equivalence matrix over engines and grids")
    _add_model_flags(v)
    v.add_argument("--engines", default="sharded,baseline")
    v.add_argument("--workers", default="1,2,4")
    v.add_argument("--replicas", default="2")
    v.add_argument("--steps", type=int, default=3)
    v.add_argument("--lr", type=float, default=0.2)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--tolerance", type=float, default=None,
                   help="largest passing max |delta param| (default: 1e-8 in double "
                        "precision, 64 float32 ulps in single)")
    v.set_defaults(fn=_cmd_verify)

    c = sub.add_parser("cost", help="closed-form cost estimates")
    _add_model_flags(c)
    c.add_argument("--engine", choices=grid.ENGINES, default="sharded")
    c.add_argument("--workers", default="1")
    c.add_argument("--no-fuse", action="store_true")
    c.add_argument("--weak-scaling", action="store_true",
                   help="print the fixed worker/sequence-length schedule table")
    c.set_defaults(fn=_cmd_cost)

    r = sub.add_parser("report", help="read a run directory back and check every measured "
                                      "figure against its estimate")
    r.add_argument("run_dir")
    r.set_defaults(fn=_cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
