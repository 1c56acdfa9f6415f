"""Data-emitting command line for the library.

Every run writes exactly one artifact file, either CSV with a fixed header
or a JSON envelope {tool_version, command, params, rows}.  Runs are
deterministic: identical configuration (including the seed) yields
byte-identical output, floats are written in shortest round-trip form, and
no timestamps or locale-dependent formatting are involved.

Configuration precedence: command-line flags > config file (key=value
lines) > built-in defaults.  The default output directory can be set with
the NHBOSON_OUTDIR environment variable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__, fock, modes, wkb
from .operators import identity_report_json, verify_identities

ENV_OUTDIR = "NHBOSON_OUTDIR"

COMMANDS = (
    "verify-algebra",
    "spectrum",
    "numrange",
    "pseudo",
    "biorth",
    "norms",
    "accretive",
    "wkb",
    "expand",
)

#: commands whose matrix/spectral claims assume |gamma| < 1
SPECTRAL_COMMANDS = ("spectrum", "numrange", "pseudo", "accretive")


class CliError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str = ""
    gamma: float = 0.5
    gamma_symbolic: bool = False
    truncation: int = 40
    theta_min: float = -1.4
    theta_max: float = 1.4
    theta_steps: int = 57
    re_min: float = -1.0
    re_max: float = 8.0
    im_min: float = -4.0
    im_max: float = 4.0
    resolution: int = 161
    cutoff: int = 4
    max_index: int = 6
    hbars: tuple = (0.2, 0.1, 0.01)
    nodes: int = 96
    points: tuple = ("-0.5", "-1+1i", "-2+3i", "-4")
    vectors: int = 1000
    seed: int = 0
    energy: float = 1.0
    summand: str = "sum"
    product: str = "biorth"
    out: str = ""
    format: str = ""

    def validate(self):
        if self.command not in COMMANDS:
            raise CliError(f"unknown command {self.command!r}")
        if self.gamma_symbolic and self.command != "verify-algebra":
            raise CliError("--gamma symbolic is only meaningful for verify-algebra")
        if not math.isfinite(self.gamma):
            raise CliError("gamma must be finite")
        if self.truncation < 0:
            raise CliError("truncation must be >= 0")
        if not 1 <= self.resolution <= 512:
            raise CliError("resolution must be in [1, 512]")
        if self.theta_steps < 1:
            raise CliError("theta-steps must be >= 1")
        if not (abs(self.theta_min) < math.pi / 2 and abs(self.theta_max) < math.pi / 2):
            raise CliError("theta range must lie inside (-pi/2, pi/2)")
        if not all(map(math.isfinite, (self.re_min, self.re_max, self.im_min, self.im_max))):
            raise CliError("grid range ends must be finite")
        if self.cutoff < 0 or self.max_index < 0:
            raise CliError("mode cutoffs must be >= 0")
        if not 1 <= self.nodes <= 512:
            raise CliError("nodes must be in [1, 512]")
        if not all(0 < float(h) < math.inf for h in self.hbars):
            raise CliError("hbar values must be positive and finite")
        if not 0 < self.energy < math.inf:
            raise CliError("energy must be positive and finite")
        if self.summand not in ("sum", "diff"):
            raise CliError("summand must be 'sum' or 'diff'")
        if self.product not in ("biorth", "physical"):
            raise CliError("product must be 'biorth' or 'physical'")
        if self.format not in ("", "csv", "json"):
            raise CliError("format must be csv or json")
        for p in self.points:
            z = fock.z_from_string(str(p))
            if not (-math.inf < z.real < 0 and math.isfinite(z.imag)):
                raise CliError(f"accretivity sample {p!r} must be finite with Re z < 0")

    def as_params(self) -> dict:
        d = asdict(self)
        d["hbars"] = [float(h) for h in self.hbars]
        d["points"] = [str(p) for p in self.points]
        return d

    @classmethod
    def from_params(cls, params: dict) -> "RunConfig":
        kwargs = dict(params)
        kwargs["hbars"] = tuple(float(h) for h in kwargs.get("hbars", ()))
        kwargs["points"] = tuple(str(p) for p in kwargs.get("points", ()))
        return cls(**kwargs)


#: per-command default output format ("" in the config means this default)
DEFAULT_FORMAT = {
    "verify-algebra": "json",
    "accretive": "json",
}


def _float_str(v) -> str:
    return repr(float(v))


def _parse_float_list(text: str) -> tuple:
    try:
        return tuple(float(v) for v in str(text).split(","))
    except ValueError as exc:
        raise CliError(f"cannot parse float list {text!r}") from exc


def read_config_file(path: str) -> dict:
    """key=value lines; '#' starts a comment; keys use underscores."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(f"malformed config line {raw.rstrip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key.replace("-", "_")] = value
    return out


_CONFIG_PARSERS = {
    "gamma": float,
    "truncation": int,
    "theta_min": float,
    "theta_max": float,
    "theta_steps": int,
    "re_min": float,
    "re_max": float,
    "im_min": float,
    "im_max": float,
    "resolution": int,
    "cutoff": int,
    "max_index": int,
    "hbars": _parse_float_list,
    "nodes": int,
    "points": lambda s: tuple(str(s).split(";")),
    "vectors": int,
    "seed": int,
    "energy": float,
    "summand": str,
    "product": str,
    "out": str,
    "format": str,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nhboson",
        description="Exact identities and spectral diagnostics for the "
        "coupled two-boson oscillator; emits CSV/JSON data files.",
    )
    parser.add_argument("--version", action="version", version=f"nhboson {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name, help_text, *opts):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--out", default=None, help="output file path")
        p.add_argument("--format", default=None, choices=("csv", "json"))
        for flag, kwargs in opts:
            p.add_argument(flag, **kwargs)
        return p

    gamma_opt = ("--gamma", dict(default=None, help="coupling constant"))
    trunc_opt = ("--truncation", dict(default=None, type=int, help="Fock truncation N"))
    nodes_opt = ("--nodes", dict(default=None, type=int, help="quadrature nodes per axis"))
    seed_opt = ("--seed", dict(default=None, type=int))

    add("verify-algebra", "exact operator-identity suite", gamma_opt)
    add("spectrum", "truncated eigenvalues vs closed-form levels", gamma_opt, trunc_opt)
    add(
        "numrange",
        "numerical-range support energies and boundary",
        gamma_opt,
        trunc_opt,
        ("--theta-min", dict(default=None, type=float)),
        ("--theta-max", dict(default=None, type=float)),
        ("--theta-steps", dict(default=None, type=int)),
    )
    add(
        "pseudo",
        "sigma_min grid for pseudospectra",
        gamma_opt,
        trunc_opt,
        ("--grid", dict(default=None, help="re_min,re_max,im_min,im_max")),
        ("--res", dict(default=None, type=int, help="grid resolution per axis")),
    )
    add(
        "biorth",
        "pairwise eigenfunction inner products",
        gamma_opt,
        nodes_opt,
        ("--max-index", dict(default=None, type=int)),
        ("--product", dict(default=None, choices=("biorth", "physical"))),
    )
    add("norms", "squared norms of right eigenfunctions", gamma_opt, nodes_opt,
        ("--max-index", dict(default=None, type=int)))
    add(
        "accretive",
        "resolvent bound and numerical-range containment",
        gamma_opt,
        trunc_opt,
        seed_opt,
        ("--points", dict(default=None, help="semicolon-separated complex samples")),
        ("--vectors", dict(default=None, type=int)),
    )
    add(
        "wkb",
        "semiclassical norm integrals over an hbar list",
        ("--energy", dict(default=None, type=float)),
        ("--hbars", dict(default=None, help="comma-separated hbar values")),
        ("--summand", dict(default=None, choices=("sum", "diff"))),
    )
    add(
        "expand",
        "round-trip probability amplitudes of a seeded random state",
        gamma_opt,
        nodes_opt,
        seed_opt,
        ("--cutoff", dict(default=None, type=int)),
    )
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    file_values = read_config_file(args.config) if getattr(args, "config", None) else {}

    def pick(field_name, flag_value, parse):
        if flag_value is not None:
            return parse(flag_value)
        if field_name in file_values:
            return _CONFIG_PARSERS[field_name](file_values[field_name])
        return getattr(cfg, field_name)

    known = {f.name for f in fields(RunConfig)}
    for key in file_values:
        if key not in known:
            raise CliError(f"unknown config key {key!r}")

    if hasattr(args, "gamma"):
        raw = args.gamma
        if raw == "symbolic":
            cfg.gamma_symbolic = True
        elif raw is not None:
            cfg.gamma = float(raw)
        elif "gamma" in file_values:
            if file_values["gamma"] == "symbolic":
                cfg.gamma_symbolic = True
            else:
                cfg.gamma = float(file_values["gamma"])
        if args.command == "verify-algebra" and raw is None and "gamma" not in file_values:
            cfg.gamma_symbolic = True
    if hasattr(args, "truncation"):
        cfg.truncation = pick("truncation", args.truncation, int)
    if hasattr(args, "theta_min"):
        cfg.theta_min = pick("theta_min", args.theta_min, float)
        cfg.theta_max = pick("theta_max", args.theta_max, float)
        cfg.theta_steps = pick("theta_steps", args.theta_steps, int)
    if hasattr(args, "grid"):
        grid = args.grid
        if grid is not None:
            vals = _parse_float_list(grid)
            if len(vals) != 4:
                raise CliError("--grid needs re_min,re_max,im_min,im_max")
            cfg.re_min, cfg.re_max, cfg.im_min, cfg.im_max = vals
        else:
            for key in ("re_min", "re_max", "im_min", "im_max"):
                setattr(cfg, key, pick(key, None, float))
        cfg.resolution = pick("resolution", args.res, int)
    if hasattr(args, "nodes"):
        cfg.nodes = pick("nodes", args.nodes, int)
    if hasattr(args, "max_index"):
        cfg.max_index = pick("max_index", args.max_index, int)
    if hasattr(args, "product"):
        cfg.product = pick("product", args.product, str)
    if hasattr(args, "points"):
        raw_points = args.points
        if raw_points is not None:
            cfg.points = tuple(str(raw_points).split(";"))
        elif "points" in file_values:
            cfg.points = _CONFIG_PARSERS["points"](file_values["points"])
        cfg.vectors = pick("vectors", args.vectors, int)
    if hasattr(args, "seed"):
        cfg.seed = pick("seed", args.seed, int)
    if hasattr(args, "cutoff"):
        cfg.cutoff = pick("cutoff", args.cutoff, int)
    if hasattr(args, "energy"):
        cfg.energy = pick("energy", args.energy, float)
        if args.hbars is not None:
            cfg.hbars = _parse_float_list(args.hbars)
        elif "hbars" in file_values:
            cfg.hbars = _CONFIG_PARSERS["hbars"](file_values["hbars"])
        cfg.summand = pick("summand", args.summand, str)
    cfg.out = pick("out", args.out, str)
    cfg.format = pick("format", args.format, str)
    return cfg


# -- row builders ----------------------------------------------------------


def _rows_verify(cfg: RunConfig):
    checks = verify_identities()
    gamma = None if cfg.gamma_symbolic else cfg.gamma
    rows = json.loads(identity_report_json(checks, gamma=gamma))
    header = list(rows[0].keys()) if rows else []
    return header, [[row[k] for k in header] for row in rows]


def _rows_spectrum(cfg: RunConfig):
    rows = fock.spectrum_rows(cfg.truncation, cfg.gamma)
    return ["index", "re", "im", "closed_form", "abs_err"], [
        [i, v.real, v.imag, closed, err] for i, v, closed, err in rows
    ]


def _rows_numrange(cfg: RunConfig):
    thetas = np.linspace(cfg.theta_min, cfg.theta_max, cfg.theta_steps)
    pts = fock.numerical_range_boundary(cfg.truncation, cfg.gamma, thetas)
    return ["theta", "E_numeric", "E_closed", "x", "y", "envelope_y"], [
        [p.theta, p.e_numeric, p.e_closed, p.x, p.y, p.envelope_y] for p in pts
    ]


def _rows_pseudo(cfg: RunConfig):
    grid = fock.pseudospectrum(
        cfg.truncation,
        cfg.gamma,
        (cfg.re_min, cfg.re_max),
        (cfg.im_min, cfg.im_max),
        cfg.resolution,
    )
    rows = []
    for iy, imv in enumerate(grid.im):
        for ix, rev in enumerate(grid.re):
            rows.append([rev, imv, grid.sigma_min[iy, ix]])
    return ["re", "im", "sigma_min"], rows


def _rows_biorth(cfg: RunConfig):
    rows = []
    left_kind = modes.ModeKind.PSI
    right_kind = (
        modes.ModeKind.PSI_TILDE if cfg.product == "biorth" else modes.ModeKind.PSI
    )
    ip_kind = (
        modes.InnerProductKind.FLAT
        if cfg.product == "biorth"
        else modes.InnerProductKind.PHYSICAL
    )
    for m in range(cfg.max_index + 1):
        for n in range(cfg.max_index + 1):
            f = modes.ModeFunction(left_kind, m, n, cfg.gamma)
            for p in range(cfg.max_index + 1):
                for q in range(cfg.max_index + 1):
                    g = modes.ModeFunction(right_kind, p, q, cfg.gamma)
                    rows.append([m, n, p, q, modes.inner_product(f, g, ip_kind, cfg.nodes)])
    return ["m", "n", "p", "q", "value"], rows


def _rows_norms(cfg: RunConfig):
    rows = []
    for m in range(cfg.max_index + 1):
        for n in range(cfg.max_index + 1):
            f = modes.ModeFunction(modes.ModeKind.PSI, m, n, cfg.gamma)
            rows.append([m, n, modes.inner_product(f, f, modes.InnerProductKind.FLAT, cfg.nodes)])
    return ["m", "n", "norm_sq"], rows


def _rows_accretive(cfg: RunConfig):
    zs = [fock.z_from_string(p) for p in cfg.points]
    report = fock.accretivity_check(
        cfg.truncation, cfg.gamma, zs, n_vectors=cfg.vectors, seed=cfg.seed
    )
    rows = [
        ["resolvent", z.real, z.imag, sig, bound, ok]
        for z, sig, bound, ok in report.rows
    ]
    rows.append(
        [
            "rayleigh",
            report.rayleigh_min_x,
            report.rayleigh_max_hyper_excess,
            float(cfg.vectors),
            0.0,
            report.rayleigh_ok,
        ]
    )
    return ["kind", "a", "b", "sigma_min_or_min_x", "bound_or_excess", "ok"], rows


def _rows_wkb(cfg: RunConfig):
    summand = (
        wkb.sum_coordinate_summand() if cfg.summand == "sum" else wkb.difference_coordinate_summand()
    )
    rows = wkb.wkb_integrals(summand, cfg.energy, cfg.hbars)
    return ["hbar", "I1", "I2", "I3"], [
        [r.hbar, r.right_norm, r.left_norm, r.cross_overlap] for r in rows
    ]


def _rows_expand(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    coeffs = rng.standard_normal((cfg.cutoff + 1, cfg.cutoff + 1))
    coeffs /= np.linalg.norm(coeffs)
    psi = modes.mode_superposition(coeffs, cfg.gamma)
    result = modes.expand_amplitudes(psi, cfg.gamma, cfg.cutoff, cfg.nodes)
    rows = []
    for m in range(cfg.cutoff + 1):
        for n in range(cfg.cutoff + 1):
            rows.append(
                [m, n, coeffs[m, n], result.coeffs[m, n], abs(coeffs[m, n] - result.coeffs[m, n])]
            )
    return ["m", "n", "c_true", "c_est", "abs_err"], rows


_RUNNERS = {
    "verify-algebra": _rows_verify,
    "spectrum": _rows_spectrum,
    "numrange": _rows_numrange,
    "pseudo": _rows_pseudo,
    "biorth": _rows_biorth,
    "norms": _rows_norms,
    "accretive": _rows_accretive,
    "wkb": _rows_wkb,
    "expand": _rows_expand,
}


# -- emission ---------------------------------------------------------------


def _format_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _float_str(v)
    return str(v)


def _jsonable(v):
    if isinstance(v, bool):
        return v
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    return v


def emit(cfg: RunConfig, header: list[str], rows: list[list]) -> str:
    fmt = cfg.format or DEFAULT_FORMAT.get(cfg.command, "csv")
    if cfg.out:
        path = cfg.out
    else:
        outdir = os.environ.get(ENV_OUTDIR, ".")
        path = os.path.join(outdir, f"{cfg.command}.{fmt}")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    if fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(_format_cell(v) for v in row) for row in rows)
        payload = "\n".join(lines) + "\n"
    else:
        envelope = {
            "tool_version": __version__,
            "command": cfg.command,
            "params": cfg.as_params(),
            "rows": [
                {key: _jsonable(v) for key, v in zip(header, row)} for row in rows
            ],
        }
        payload = json.dumps(envelope, indent=2) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(payload)
    return path


#: options whose values may start with '-', folded into --opt=value form
_DASH_VALUE_OPTS = ("--grid", "--points", "--hbars", "--theta-min", "--theta-max", "--gamma")


def _fold_dash_values(argv):
    out = []
    it = iter(argv)
    for token in it:
        if token in _DASH_VALUE_OPTS:
            value = next(it, None)
            if value is None:
                out.append(token)
            else:
                out.append(f"{token}={value}")
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_fold_dash_values(list(argv)))
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg = _merge_config(args)
        cfg.validate()
    except (CliError, OSError, ValueError) as exc:
        print(f"nhboson: error: {exc}", file=sys.stderr)
        return 2
    if cfg.command in SPECTRAL_COMMANDS and abs(cfg.gamma) >= 1:
        print(
            f"nhboson: warning: |gamma| = {abs(cfg.gamma)} >= 1; closedness of the "
            "full operator is not guaranteed there, results are truncation-only",
            file=sys.stderr,
        )
    try:
        header, rows = _RUNNERS[cfg.command](cfg)
    except fock.SolverConvergenceError as exc:
        print(f"nhboson: solver failed to converge: {exc}", file=sys.stderr)
        return 3
    path = emit(cfg, header, rows)
    print(path)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
