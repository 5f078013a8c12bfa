"""Command-line interface.

Subcommands: sweep, noise, glasso-noise, scree, classify, factorize, diagnose.
All output is CSV (plus a JSON summary for diagnose) intended for external
plotting.  Exit codes: 0 success, 2 usage error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import experiments, geometry
from .extreme_points import PursuitConfig, pursue
from .matrix_io import format_value, load_csv, save_csv


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format_value(v)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _load_matrix(args) -> np.ndarray:
    X = load_csv(args.input, skip_header=args.skip_header)
    return np.ascontiguousarray(X.T) if args.transpose else X


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _add_matrix_args(sp) -> None:
    sp.add_argument("--input", required=True, help="CSV matrix, rows are data points")
    sp.add_argument("--transpose", action="store_true", help="transpose after load")
    sp.add_argument("--skip-header", action="store_true", help="skip one header row")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="archpursuit")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sweep", help="exact-recovery fraction over a (k, m) grid")
    sp.add_argument("--generator", choices=("uniform", "hilbert"), default="uniform")
    sp.add_argument("--n", type=int, default=500)
    sp.add_argument("--p", type=int, default=1000)
    sp.add_argument("--k-list", type=_parse_int_list, default=(5, 10, 20, 40))
    sp.add_argument(
        "--multipliers",
        type=_parse_float_list,
        default=(1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 16.0),
        help="m = ceil(c * k * ln k) per multiplier c",
    )
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.add_argument("--isocline-out", default=None)

    for name, sel in (("noise", "majority-vote"), ("glasso-noise", "group-lasso")):
        sp = sub.add_parser(name, help=f"mean residual grid, {sel} selection")
        sp.add_argument("--k", type=int, default=20)
        sp.add_argument("--p", type=int, default=1000)
        sp.add_argument(
            "--multipliers", type=_parse_float_list, default=(1.0, 2.0, 5.0, 10.0, 20.0)
        )
        sp.add_argument("--eps-min", type=float, default=1e-4)
        sp.add_argument("--eps-max", type=float, default=1e-1)
        sp.add_argument("--eps-count", type=int, default=10)
        sp.add_argument("--trials", type=int, default=50)
        sp.add_argument("--select-k", type=int, default=20)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", required=True)
        if name == "glasso-noise":
            sp.add_argument("--grid-points", type=int, default=30)

    sp = sub.add_parser("scree", help="sorted normalized vote fractions per repeat")
    _add_matrix_args(sp)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--repeats", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("classify", help="nearest-archetype labels per row")
    _add_matrix_args(sp)
    sp.add_argument("--archetypes", type=_parse_int_list, required=True)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("factorize", help="pursuit -> selection -> NNLS pipeline")
    _add_matrix_args(sp)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument(
        "--adaptive",
        action="store_true",
        help="--m becomes the round size; stop after a round that finds nothing new",
    )
    sp.add_argument("--select", choices=("vote", "glasso"), default="vote")
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--normalize", action="store_true")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out-dir", required=True)

    sp = sub.add_parser("diagnose", help="solid angles, simplicial constants, kappa")
    _add_matrix_args(sp)
    sp.add_argument("--archetypes", type=_parse_int_list, default=None)
    sp.add_argument("--m", type=int, default=None, help="pursue first when no archetypes given")
    sp.add_argument("--samples", type=int, default=100_000)
    sp.add_argument("--delta", type=float, default=0.05)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out-prefix", required=True)

    return ap


def _cmd_sweep(args) -> int:
    spec = experiments.SweepSpec(
        k_values=args.k_list,
        multipliers=args.multipliers,
        trials=args.trials,
        n=args.n,
        p=args.p,
        generator=args.generator,
        seed=args.seed,
    )
    res = experiments.run_sweep(spec)
    _write_csv(args.out, ("k", "multiplier", "m", "trials", "recovery"), res.grid)
    if args.isocline_out:
        _write_csv(
            args.isocline_out,
            ("k", "log_k_reference", "multiplier_95"),
            res.isoclines,
        )
    return 0


def _cmd_noise(args, selector: str) -> int:
    spec = experiments.NoiseSpec(
        k=args.k,
        p=args.p,
        multipliers=args.multipliers,
        eps_grid=tuple(np.geomspace(args.eps_min, args.eps_max, args.eps_count)),
        trials=args.trials,
        select_k=args.select_k,
        seed=args.seed,
    )
    grid_points = getattr(args, "grid_points", 30)
    rows = experiments.run_noise(spec, selector=selector, grid_points=grid_points)
    _write_csv(
        args.out,
        ("multiplier", "m", "epsilon", "mean_residual", "log10_mean_residual"),
        rows,
    )
    return 0


def _cmd_scree(args) -> int:
    X = _load_matrix(args)
    out = experiments.run_scree(X, m=args.m, repeats=args.repeats, seed=args.seed)
    header = ("run",) + tuple(f"rank_{i + 1}" for i in range(out.shape[1]))
    rows = [(r,) + tuple(out[r]) for r in range(out.shape[0])]
    _write_csv(args.out, header, rows)
    return 0


def _cmd_classify(args) -> int:
    X = _load_matrix(args)
    labels = experiments.classify_rows(X, args.archetypes)
    _write_csv(args.out, ("row", "archetype"), list(enumerate(labels.tolist())))
    return 0


def _cmd_factorize(args) -> int:
    if args.select == "glasso" and args.k is None:
        print("error: --select glasso requires --k", file=sys.stderr)
        return 2
    X = _load_matrix(args)
    res = experiments.factorize(
        X,
        m=args.m,
        seed=args.seed,
        adaptive=args.adaptive,
        select=args.select,
        k=args.k,
        workers=args.workers,
        normalize=args.normalize,
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "indices.csv", ("archetype_row",), [(i,) for i in res.indices])
    save_csv(res.W, out / "W.csv")
    _write_csv(
        out / "summary.csv",
        ("relative_residual", "passes", "elapsed_seconds", "m_used", "k_selected"),
        [
            (
                res.relative_residual,
                res.passes,
                res.elapsed_seconds,
                res.m_used,
                len(res.indices),
            )
        ],
    )
    workers = sorted(res.trace.rows_touched)
    _write_csv(
        out / "trace.csv",
        ("worker", "rows_touched", "bytes_sent"),
        [(w, res.trace.rows_touched[w], res.trace.bytes_sent[w]) for w in workers],
    )
    if res.lasso_path is not None:
        rows = []
        for ti, lam in enumerate(res.lasso_path.lambdas):
            active = set(res.lasso_path.active[ti])
            for g, row_index in enumerate(res.candidates):
                rows.append(
                    (
                        lam,
                        row_index,
                        res.lasso_path.group_norms[ti, g],
                        int(g in active),
                    )
                )
        _write_csv(
            out / "path.csv", ("lambda", "group_index", "group_norm", "active_flag"), rows
        )
    return 0


def _cmd_diagnose(args) -> int:
    if args.archetypes is None and args.m is None:
        print("error: diagnose needs --archetypes or --m", file=sys.stderr)
        return 2
    X = _load_matrix(args)
    if args.archetypes is not None:
        ext = list(args.archetypes)
    else:
        ext = list(pursue(X, PursuitConfig(m=args.m, seed=args.seed)).indices)
    rep = geometry.geometry_report(
        X, ext, samples=args.samples, seed=args.seed, delta=args.delta
    )
    _write_csv(
        f"{args.out_prefix}_points.csv",
        ("row", "omega_hat", "omega_se", "alpha_hat"),
        [
            (rep.ext_indices[i], rep.omega_hat[i], rep.omega_se[i], rep.alpha_hat[i])
            for i in range(len(rep.ext_indices))
        ],
    )
    summary = {
        "kappa": rep.kappa,
        "kappa_bar": rep.kappa_bar,
        "delta": rep.delta,
        "m_required": rep.m_required,
        "n_extreme": len(rep.ext_indices),
        "omega_sum": float(rep.omega_hat.sum()),
    }
    if len(rep.ext_indices) == 1:
        summary["alpha_note"] = "alpha_hat is 0: a lone archetype has no hull of others"
    with open(f"{args.out_prefix}_summary.json", "w", encoding="ascii") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return 0


_DISPATCH = {
    "sweep": _cmd_sweep,
    "noise": lambda args: _cmd_noise(args, "vote"),
    "glasso-noise": lambda args: _cmd_noise(args, "glasso"),
    "scree": _cmd_scree,
    "classify": _cmd_classify,
    "factorize": _cmd_factorize,
    "diagnose": _cmd_diagnose,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
