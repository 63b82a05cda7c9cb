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


def cmd_spectral(args) -> int:
    a = jsonio.matrix_from_json(jsonio.load_json(args.input))
    dec = decompose(a, cluster_tol=args.cluster_tol, imag_tol=args.imag_tol)
    payload = {
        "dim": dec.dim,
        "cluster_tol": dec.cluster_tol,
        "imag_tol": dec.imag_tol,
        "gaps": _gaps_json(gaps(dec)),
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


def _gaps_json(gap) -> dict:
    """A :class:`GapData` as JSON, with an infinite eta or delta written as the string "inf" (nu is finite)."""
    return {name: "inf" if value == float("inf") else value
            for name, value in (("eta", gap.eta), ("delta", gap.delta), ("nu", gap.nu))}


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
    payload = {
        "strong": jsonio.matrix_to_json(b),
        "weak": jsonio.matrix_to_json(c),
        "cluster_tol": split.decomposition.cluster_tol,
        "imag_tol": split.decomposition.imag_tol,
        "zeno_generator": jsonio.matrix_to_json(split.c_z),
        "peripheral_projection": jsonio.matrix_to_json(split.p_phi),
        "eigenvalues": [[c_.eigenvalue.real, c_.eigenvalue.imag, c_.peripheral]
                        for c_ in split.decomposition.clusters],
        "gaps": _gaps_json(split.gap_data),
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


def cmd_sweep(args) -> int:
    cfg = SweepConfig.from_json(jsonio.load_json(args.config))
    result = run_sweep(cfg)
    print(json.dumps(result.summary, indent=2))
    if not cfg.output:
        sys.stdout.write(result.csv_text)
    return 0


def cmd_check_spectral(args) -> int:
    sys_ = jsonio.system_from_json(jsonio.load_json(args.system))
    report = spectral_property_check(sys_)
    print(json.dumps(report.as_dict(), indent=2, default=float))
    return 0


def cmd_acceptance(args) -> int:
    from .acceptance import all_criteria, run_acceptance

    return run_acceptance(*all_criteria(), csv_path=args.fig_csv)


def _command_tree() -> argparse.ArgumentParser:
    """The whole command tree; each leaf names the ``cmd_*`` function it runs as ``func``."""
    parser = argparse.ArgumentParser(
        prog="zeno-limits",
        description="Strong-coupling limits of GKLS dynamics: spectral structure, "
                    "Zeno generators, error bounds.")
    top = parser.add_subparsers(dest="command", required=True)

    def branch(name, help):
        return top.add_parser(name, help=help).add_subparsers(dest=f"{name}_cmd", required=True)

    def leaf(sub, name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    p = leaf(top, "spectral", cmd_spectral, "spectral decomposition of a matrix")
    p.add_argument("--input", required=True, help="matrix JSON file")
    p.add_argument("--cluster-tol", type=float, default=None)
    p.add_argument("--imag-tol", type=float, default=None)
    p.add_argument("--output", required=True, help="decomposition JSON file")

    gkls = branch("gkls", "build and check GKLS superoperators")
    p = leaf(gkls, "build", cmd_gkls_build, "compile a system file to a superoperator")
    p.add_argument("--system", required=True)
    p.add_argument("--output", required=True)
    p = leaf(gkls, "check", cmd_gkls_check, "print CPTP / GKLS-form reports for a map file")
    p.add_argument("--map", required=True)

    zeno = branch("zeno", "Zeno splits, limit errors, and bounds")
    p = leaf(zeno, "split", cmd_zeno_split, "compute the Zeno split of a generator pair")
    p.add_argument("--strong", required=True)
    p.add_argument("--weak", required=True)
    p.add_argument("--output", required=True)
    p = leaf(zeno, "error", cmd_zeno_error, "one adiabatic-limit error value")
    p.add_argument("--split", required=True, help="split JSON from 'zeno split'")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--variant", choices=VARIANTS, default="peripheral")
    p = leaf(zeno, "bounds", cmd_zeno_bounds, "error and bound table over a grid")
    p.add_argument("--split", required=True)
    p.add_argument("--gamma-grid", required=True, help="comma-separated, e.g. 10,30,100")
    p.add_argument("--t-grid", required=True, help="start:stop:count")
    p.add_argument("--output", required=True, help="CSV output path")

    model = branch("model", "canonical models")
    p = leaf(model, "three-level", cmd_model_three_level, "three-level model artifacts")
    p.add_argument("--params", help="parameter JSON file (field names as in ThreeLevelParams)")
    p.add_argument("--emit", choices=("generators", "analytic"), default="generators")
    p.add_argument("--t", type=float, default=1.0)
    p = leaf(model, "dephasing-qubit", cmd_model_dephasing, "dephasing-qubit example artifacts")
    p.add_argument("--emit", choices=("all",), default="all")

    p = leaf(top, "sweep", cmd_sweep, "config-driven gamma/t sweep")
    p.add_argument("--config", required=True)
    p = leaf(top, "check-spectral", cmd_check_spectral, "structural audit of a system file")
    p.add_argument("--system", required=True)
    p = leaf(top, "acceptance", cmd_acceptance, "run the acceptance suite")
    p.add_argument("--fig-csv", default=None, help="where to write the figure dataset")
    return parser


#: built once per process; ``main`` only parses and dispatches
_PARSER = _command_tree()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
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
