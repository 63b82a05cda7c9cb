"""Command-line interface.

One umbrella program (``zeno-limits``) exposes every subcommand; the
``spectral``, ``gkls``, ``zeno`` and ``model`` entry points are aliases
into the corresponding subtrees so the examples in the docs work
verbatim.  All file formats are the JSON encodings of :mod:`.jsonio`.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from . import _read, jsonio
from .errors import ValidationError, ZenoLimitsError
from .experiments import SweepConfig, format_csv, run_sweep, spectral_property_check
from .gkls import cptp_check, gkls_form_check, liouvillian
from .linalg import spectral_norm
from .models import ThreeLevelParams, dephasing_qubit_example, three_level_analytic_propagator, three_level_generators
from .spectral import decompose, gaps
from .zeno import BOUNDS, VARIANTS, adiabatic_error, evaluate_grid, zeno_split


def _add_spectral(sub):
    p = sub.add_parser("spectral", help="spectral decomposition of a matrix")
    p.add_argument("--input", required=True, help="matrix JSON file")
    p.add_argument("--cluster-tol", type=float, default=None)
    p.add_argument("--imag-tol", type=float, default=None)
    p.add_argument("--output", required=True, help="decomposition JSON file")
    p.set_defaults(func=cmd_spectral)


def cmd_spectral(args) -> int:
    a = jsonio.matrix_from_json(jsonio.load_json(args.input))
    dec = decompose(a, cluster_tol=args.cluster_tol, imag_tol=args.imag_tol)
    gap = gaps(dec)
    payload = {
        "dim": dec.dim,
        "cluster_tol": dec.cluster_tol,
        "imag_tol": dec.imag_tol,
        "gaps": {"eta": _json_real(gap.eta), "delta": _json_real(gap.delta), "nu": gap.nu},
        "clusters": [
            {
                "eigenvalue": [c.eigenvalue.real, c.eigenvalue.imag],
                "projection": jsonio.matrix_to_json(c.projection),
                "nilpotent": jsonio.matrix_to_json(c.nilpotent),
                "index": c.index,
                "semisimple": c.semisimple,
                "peripheral": c.peripheral,
            }
            for c in dec.clusters
        ],
    }
    jsonio.dump_json(payload, args.output)
    return 0


def _json_real(x: float):
    return "inf" if x == float("inf") else x


def _add_gkls(sub):
    p = sub.add_parser("gkls", help="build and check GKLS superoperators")
    inner = p.add_subparsers(dest="gkls_cmd", required=True)
    b = inner.add_parser("build", help="compile a system file to a superoperator")
    b.add_argument("--system", required=True)
    b.add_argument("--output", required=True)
    b.set_defaults(func=cmd_gkls_build)
    c = inner.add_parser("check", help="print CPTP / GKLS-form reports for a map file")
    c.add_argument("--map", required=True)
    c.set_defaults(func=cmd_gkls_check)


def cmd_gkls_build(args) -> int:
    sys_ = jsonio.system_from_json(jsonio.load_json(args.system))
    sop = liouvillian(sys_)
    jsonio.dump_json(jsonio.superoperator_to_json(sop), args.output)
    return 0


def cmd_gkls_check(args) -> int:
    mat = jsonio.superoperator_from_json(jsonio.load_json(args.map)).mat  # a bare matrix: no provenance check
    report = {"cptp": asdict(cptp_check(mat)), "gkls_form": asdict(gkls_form_check(mat))}
    print(json.dumps(report, indent=2))
    return 0


def _add_zeno(sub):
    p = sub.add_parser("zeno", help="Zeno splits, limit errors, and bounds")
    inner = p.add_subparsers(dest="zeno_cmd", required=True)

    s = inner.add_parser("split", help="compute the Zeno split of a generator pair")
    s.add_argument("--strong", required=True)
    s.add_argument("--weak", required=True)
    s.add_argument("--output", required=True)
    s.set_defaults(func=cmd_zeno_split)

    e = inner.add_parser("error", help="one adiabatic-limit error value")
    e.add_argument("--split", required=True, help="split JSON from 'zeno split'")
    e.add_argument("--gamma", type=float, required=True)
    e.add_argument("--t", type=float, required=True)
    e.add_argument("--variant", choices=VARIANTS, default="peripheral")
    e.set_defaults(func=cmd_zeno_error)

    b = inner.add_parser("bounds", help="error and bound table over a grid")
    b.add_argument("--split", required=True)
    b.add_argument("--gamma-grid", required=True, help="comma-separated, e.g. 10,30,100")
    b.add_argument("--t-grid", required=True, help="start:stop:count")
    b.add_argument("--output", required=True, help="CSV output path")
    b.set_defaults(func=cmd_zeno_bounds)


def _split_from_file(path):
    obj = jsonio.load_json(path)
    if "strong" not in obj or "weak" not in obj:
        raise ValidationError(f"split file {path} needs 'strong' and 'weak' matrices")
    b = jsonio.matrix_from_json(obj["strong"])
    c = jsonio.matrix_from_json(obj["weak"])
    return zeno_split(b, c, cluster_tol=obj.get("cluster_tol"), imag_tol=obj.get("imag_tol"))


def cmd_zeno_split(args) -> int:
    b, c = (jsonio.superoperator_from_json(jsonio.load_json(path)) for path in (args.strong, args.weak))
    split = zeno_split(b, c)
    gap = split.gap_data
    payload = {
        "strong": jsonio.matrix_to_json(b),
        "weak": jsonio.matrix_to_json(c),
        "cluster_tol": split.decomposition.cluster_tol,
        "imag_tol": split.decomposition.imag_tol,
        "zeno_generator": jsonio.matrix_to_json(split.c_z),
        "peripheral_projection": jsonio.matrix_to_json(split.p_phi),
        "eigenvalues": [[c_.eigenvalue.real, c_.eigenvalue.imag, c_.peripheral]
                        for c_ in split.decomposition.clusters],
        "gaps": {"eta": _json_real(gap.eta), "delta": _json_real(gap.delta), "nu": gap.nu},
        "resolvent_norms": {str(k): spectral_norm(v) for k, v in split.resolvents.items()},
    }
    jsonio.dump_json(payload, args.output)
    return 0


def cmd_zeno_error(args) -> int:
    split = _split_from_file(args.split)
    err = adiabatic_error(split, args.gamma, args.t, args.variant)
    print(json.dumps({"gamma": args.gamma, "t": args.t, "variant": args.variant,
                      "error": err}))
    return 0


def cmd_zeno_bounds(args) -> int:
    try:
        gammas = [float(x) for x in args.gamma_grid.split(",") if x.strip()]
    except ValueError:
        raise ValidationError(f"--gamma-grid must be comma-separated numbers, got {args.gamma_grid!r}") from None
    try:
        start, stop, count = args.t_grid.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise ValidationError(f"--t-grid must be start:stop:count, got {args.t_grid!r}") from None
    t_grid = np.linspace(_read.real("--t-grid start", start), _read.real("--t-grid stop", stop),
                         _read.integer("--t-grid count", count, 0))
    split = _split_from_file(args.split)
    jsonio.write_text(args.output, format_csv(evaluate_grid(split, gammas, t_grid, bounds=tuple(BOUNDS))))
    return 0


def _add_model(sub):
    p = sub.add_parser("model", help="canonical models")
    inner = p.add_subparsers(dest="model_cmd", required=True)

    t = inner.add_parser("three-level", help="three-level model artifacts")
    t.add_argument("--params", help="parameter JSON file (field names as in ThreeLevelParams)")
    t.add_argument("--emit", choices=("generators", "analytic"), default="generators")
    t.add_argument("--t", type=float, default=1.0)
    t.set_defaults(func=cmd_model_three_level)

    d = inner.add_parser("dephasing-qubit", help="dephasing-qubit example artifacts")
    d.add_argument("--emit", choices=("all",), default="all")
    d.set_defaults(func=cmd_model_dephasing)


def cmd_model_three_level(args) -> int:
    params = ThreeLevelParams()
    if args.params:
        params = ThreeLevelParams.from_json(jsonio.load_json(args.params))
    if args.emit == "generators":
        l_super, d_super = three_level_generators(params)
        print(json.dumps({"L": jsonio.superoperator_to_json(l_super),
                          "D": jsonio.superoperator_to_json(d_super)}))
    else:
        prop = three_level_analytic_propagator(params, args.t)
        print(json.dumps({"t": args.t, "propagator": jsonio.superoperator_to_json(prop)}))
    return 0


def cmd_model_dephasing(args) -> int:
    ex = dephasing_qubit_example()
    print(json.dumps({
        "H": jsonio.matrix_to_json(ex.hamiltonian),
        "jump": jsonio.matrix_to_json(ex.jump),
        "L": jsonio.superoperator_to_json(ex.l_super),
        "expected_zeno": jsonio.superoperator_to_json(ex.expected_zeno),
        "expected_non_gkls": jsonio.superoperator_to_json(ex.expected_non_gkls),
    }))
    return 0


def _add_sweep(sub):
    p = sub.add_parser("sweep", help="config-driven gamma/t sweep")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_sweep)


def cmd_sweep(args) -> int:
    cfg = SweepConfig.from_json(jsonio.load_json(args.config))
    result = run_sweep(cfg)
    print(json.dumps(result.summary, indent=2))
    if not cfg.output:
        sys.stdout.write(result.csv_text)
    return 0


def _add_check_spectral(sub):
    p = sub.add_parser("check-spectral", help="structural audit of a system file")
    p.add_argument("--system", required=True)
    p.set_defaults(func=cmd_check_spectral)


def cmd_check_spectral(args) -> int:
    sys_ = jsonio.system_from_json(jsonio.load_json(args.system))
    report = spectral_property_check(sys_)
    print(json.dumps(report.as_dict(), indent=2, default=float))
    return 0


def _add_acceptance(sub):
    p = sub.add_parser("acceptance", help="run the acceptance suite")
    p.add_argument("--fig-csv", default=None, help="where to write the figure dataset")
    p.set_defaults(func=cmd_acceptance)


def cmd_acceptance(args) -> int:
    from .acceptance import all_criteria, run_acceptance

    return run_acceptance(*all_criteria(), csv_path=args.fig_csv)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zeno-limits",
        description="Strong-coupling limits of GKLS dynamics: spectral structure, "
                    "Zeno generators, error bounds.")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_spectral(sub)
    _add_gkls(sub)
    _add_zeno(sub)
    _add_model(sub)
    _add_sweep(sub)
    _add_check_spectral(sub)
    _add_acceptance(sub)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ZenoLimitsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _alias_main(prefix: str):
    def runner(argv=None) -> int:
        argv = list(sys.argv[1:] if argv is None else argv)
        return main([prefix] + argv)
    return runner


main_spectral = _alias_main("spectral")
main_gkls = _alias_main("gkls")
main_zeno = _alias_main("zeno")
main_model = _alias_main("model")


if __name__ == "__main__":
    raise SystemExit(main())
