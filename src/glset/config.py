"""Run configuration: a small key/value tree with job blocks.

Format by example (README "Config format" has a longer one)::

    model iid_gaussian           # iid_gaussian | kl_brownian | explicit
    dim 5                        # '#' starts a comment
    functional bump = exp(-norm2())
    job density
      G norm2
      phi bump
      r_grid 1 3 5

Indented lines are parameters of the preceding ``job`` line.  A key given
twice, at the top level or in one job, is an issue on its second line
(``functional`` and ``job`` lines repeat by their own rules), and
``formats`` takes ``csv``, ``json`` or both.  Each job kind
reads the parameters below, optional ones in brackets (``a|b``: one of the
two); any other parameter is an error::

    density       G phi r_grid  [n seed epsilon estimator]
    surface       G r  [phi|phi_list n seed epsilon estimator k_list trace hausdorff]
    ibp           G phi|phi_list k_list r|r_grid  [n seed epsilon estimator]
    disintegrate  G bins  [phi|phi_list n seed scheme dump_particles]
    hausdorff     G r  [phi n seed epsilon estimator]
    selftest      (no parameters)

A surface job's ``k_list`` and ``trace`` need a phi.  Levels (``r``,
``r_grid``) and ``epsilon`` must be finite.  A hausdorff job, and a
surface job with ``hausdorff true``, need a G the quadrature oracle takes
(:func:`glset.surface.quadrature_issue`).  A density, surface, ibp or
hausdorff job whose n draws a single chunk of the stream parses with a warning: batch
means need two chunks, so its standard errors will be NaN and flagged
``insufficient-batches``.

Functionals are referenced by defined name, by builtin name (``norm2``,
``bm_endpoint``, ``coordinate(k)``, ``linear(w1, w2, ...)``) or written inline
as expressions.  Parsing resolves every reference against the model, as a
run does, and reports all errors with their lines, not just the first.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

from .density import INSUFFICIENT_BATCHES
from .expressions import ExpressionFunctional, Num, parse_expression
from .functionals import BmEndpoint, Constant, Coordinate, Linear, Norm2
from .model import GaussianModel, build_model, chunk_layout
from .surface import quadrature_issue

ESTIMATORS = ("divergence", "mollified", "both")
FORMATS = ("csv", "json")
BUILTIN_NAMES = ("norm2", "bm_endpoint")


@dataclass(frozen=True)
class ModelSpec:
    family: str
    dim: int
    spectrum: tuple[float, ...] | None = None


@dataclass(frozen=True)
class JobSpec:
    kind: str
    G: str | None = None
    phi: tuple[str, ...] = ()
    r: float | None = None
    r_grid: tuple[float, ...] = ()
    n: int = 100000
    seed: int = 0
    epsilon: float | None = None
    estimator: str = "both"
    bins: int = 0
    scheme: str = "quantile"
    k_list: tuple[int, ...] = ()
    trace: bool = False
    hausdorff: bool = False
    dump_particles: bool = False


@dataclass(frozen=True)
class RunConfig:
    model: ModelSpec
    functionals: tuple[tuple[str, str], ...] = ()
    jobs: tuple[JobSpec, ...] = ()
    output: str = "out"
    formats: tuple[str, ...] = FORMATS


@dataclass
class ConfigIssue:
    line: int
    message: str

    def __str__(self):
        return f"line {self.line}: {self.message}"


class ConfigError(ValueError):
    """All problems found in a configuration, not just the first."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("\n".join(str(i) for i in self.issues))


def resolve_model(spec: ModelSpec) -> GaussianModel:
    if spec.family == "explicit":
        return build_model({"spectrum": list(spec.spectrum)})
    return build_model((spec.family, spec.dim))


def resolve_functional(text: str, defs: dict, model: GaussianModel):
    """Turn a functional reference into an oracle: defined name, builtin,
    or inline expression.  Raises ValueError if it reads past the model's
    dimension."""
    text = text.strip()
    if text in defs:
        f = _expression_functional(defs[text], name=text)
    elif text == "norm2":
        f = Norm2()
    elif text == "bm_endpoint":
        f = BmEndpoint(model)
    elif text.startswith("coordinate(") and text.endswith(")"):
        f = Coordinate(int(text[len("coordinate("):-1]))
    elif text.startswith("linear(") and text.endswith(")"):
        f = Linear([float(p) for p in text[len("linear("):-1].split(",") if p.strip()])
    else:
        f = _expression_functional(text)
    for k, pos in f.parsed.xi_refs if isinstance(f, ExpressionFunctional) else ():
        if k > model.dim:
            raise ValueError(f"xi({k}) exceeds model dim {model.dim} (at position {pos})")
    if f.min_dim > model.dim:
        raise ValueError(f"{f.name} reads xi({f.min_dim}), model dim is {model.dim}")
    return f


def _expression_functional(source: str, name: str | None = None):
    parsed = parse_expression(source)
    if isinstance(parsed.ast, Num):
        return Constant(parsed.ast.value)
    return ExpressionFunctional(parsed, name=name)


# ----------------------------- job schema -----------------------------

def _number(kind):
    def parse(text, resolve=None):
        try:
            return kind(text)
        except ValueError:
            raise ValueError(f"cannot parse {text!r}") from None
    return parse


def _finite(text, resolve=None):
    value = _number(float)(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _each(parse_one):
    """Parser of a space-separated list of what ``parse_one`` parses."""
    def parse(text, resolve):
        if not text:
            raise ValueError("needs at least one value")
        return tuple(parse_one(item, resolve) for item in text.split())
    return parse


def _word(text, resolve):
    return text


def _flag(text, resolve):
    if text not in ("true", "false"):
        raise ValueError("expected true or false")
    return text == "true"


def _reference(text, resolve):
    resolve(text)
    return text


class _Param(NamedTuple):
    field: str  # the JobSpec field it sets
    parse: Callable  # (text, resolve) -> value; a ValueError says what is wrong
    ok: Callable = lambda value, dim: True
    rule: str = ""  # the issue when ``ok`` fails; may use {value} and {dim}


_PARAMS = {
    "G": _Param("G", _reference),
    "phi": _Param("phi", lambda text, resolve: (_reference(text, resolve),)),
    "phi_list": _Param("phi", _each(_reference)),
    "r": _Param("r", _finite),
    "r_grid": _Param("r_grid", _each(_finite),
                     lambda v, dim: all(a < b for a, b in zip(v, v[1:])),
                     "r_grid must be strictly increasing"),
    "n": _Param("n", _number(int), lambda v, dim: v >= 1, "n must be >= 1"),
    "seed": _Param("seed", _number(int)),
    "epsilon": _Param("epsilon", _finite, lambda v, dim: v > 0,
                      "epsilon must be positive"),
    "estimator": _Param("estimator", _word, lambda v, dim: v in ESTIMATORS,
                        "unknown estimator {value!r}"),
    "bins": _Param("bins", _number(int), lambda v, dim: v >= 2,
                   "disintegrate job needs bins >= 2"),
    "scheme": _Param("scheme", _word, lambda v, dim: v in ("quantile", "fixed"),
                     "unknown binning scheme {value!r}"),
    "k_list": _Param("k_list", _each(_number(int)),
                     lambda v, dim: all(1 <= k <= dim for k in v),
                     "k_list entries must lie in 1..{dim}"),
    "trace": _Param("trace", _flag),
    "hausdorff": _Param("hausdorff", _flag),
    "dump_particles": _Param("dump_particles", _flag),
}

# job kind -> (required, optional) parameters; "a|b" is one of a and b
_JOBS = {
    "density": ("G phi r_grid", "n seed epsilon estimator"),
    "surface": ("G r", "phi|phi_list n seed epsilon estimator k_list trace hausdorff"),
    "ibp": ("G phi|phi_list k_list r|r_grid", "n seed epsilon estimator"),
    "disintegrate": ("G bins", "phi|phi_list n seed scheme dump_particles"),
    "hausdorff": ("G r", "phi n seed epsilon estimator"),
    "selftest": ("", ""),
}
JOB_KINDS = tuple(_JOBS)
# the kinds whose standard errors are batch means over chunks, flagged
# INSUFFICIENT_BATCHES when the stream has fewer than two
_BATCH_MEAN_KINDS = ("density", "surface", "ibp", "hausdorff")


def _job_spec(kind, job_line, params, resolve, dim, error) -> JobSpec:
    """Check one job block, ``params`` as ``{key: (line, text)}``, against
    the schema of its kind; ``resolve`` maps a functional reference to the
    functional a run would use."""
    required, optional = (groups.split() for groups in _JOBS[kind])
    read = set()
    for group in required + optional:
        keys = group.split("|")
        given = [k for k in keys if k in params]
        if not given and group in required:
            error(job_line, f"{kind} job needs {' or '.join(keys)}")
        for key in given[1:]:
            error(params[key][0], f"{key}: {kind} job takes one of {' | '.join(keys)}")
        read.update(given)
    values, lines = {}, {}
    for key, (line, text) in params.items():
        if key not in read:
            error(line, f"{kind} job takes no parameter {key!r}")
            continue
        param = _PARAMS[key]
        try:
            value = param.parse(text, resolve)
        except ValueError as e:
            error(line, f"{key}: {e}")
            continue
        if not param.ok(value, dim):
            error(line, param.rule.format(value=value, dim=dim))
            continue
        values[param.field], lines[key] = value, line
    _check_job(kind, values, lines, job_line, resolve, dim, error)
    return JobSpec(kind=kind, **values)


def _check_job(kind, values, lines, job_line, resolve, dim, error):
    """The rules that tie the parameters of one job together, and a warning
    for a job too short for batch means."""
    n = values.get("n", JobSpec.n)
    if kind in _BATCH_MEAN_KINDS and len(chunk_layout(n)) < 2:
        warnings.warn(f"line {job_line}: {kind} job with n {n} draws one chunk, so its "
                      f"standard errors will be NaN and flagged {INSUFFICIENT_BATCHES!r}")
    if kind == "disintegrate" and n < values.get("bins", 0):
        error(job_line, "disintegrate needs n >= bins")
    for key in ("k_list", "trace") if kind == "surface" else ():
        if values.get(key) and not values.get("phi"):
            error(lines[key], f"{key}: needs phi or phi_list")
    refs = values.get("phi", ())
    names = [resolve(ref).name for ref in refs]
    for i, name in enumerate(names):
        if name in names[:i]:  # a run keys its output by weight name
            error(lines["phi_list"], f"phi_list: {refs[i]!r} is a second weight named {name!r}")
    if (kind == "hausdorff" or values.get("hausdorff")) and "G" in values:
        issue = quadrature_issue(resolve(values["G"]), dim)
        if issue:
            error(lines.get("hausdorff", job_line), f"hausdorff: {issue}")


# ----------------------------- parse / serialize -----------------------------

def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration; raises ConfigError listing every
    problem found."""
    issues: list[ConfigIssue] = []

    def error(line: int, message: str):
        issues.append(ConfigIssue(line, message))

    def number(kind, text, line, what):
        try:
            return _number(kind)(text)
        except ValueError as e:
            error(line, f"{what}: {e}")

    model_family = None
    dim = None
    spectrum = None
    output = "out"
    formats = FORMATS
    first: dict[str, int] = {}  # top-level key: the line that gave it
    defs: dict[str, tuple[str, int]] = {}  # name: (source, line)
    jobs: list[tuple[int, str, dict]] = []  # (line, kind, {key: (line, value)})
    current: dict | None = None

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        parts = line.split()
        key, rest = parts[0], " ".join(parts[1:])
        if line[0] in " \t":
            if current is None:
                error(lineno, "indented parameter outside a job block")
            elif key in current:
                error(lineno, f"{key}: given again, first on line {current[key][0]}")
            else:
                current[key] = (lineno, rest)
            continue
        current = None
        if key in ("model", "dim", "spectrum", "output", "formats"):
            if key in first:
                error(lineno, f"{key}: given again, first on line {first[key]}")
                continue
            first[key] = lineno
        if key == "model":
            model_family = rest.strip()
        elif key == "dim":
            dim = number(int, rest, lineno, "dim")
            if dim is not None and dim < 1:
                error(lineno, f"dim: must be positive, got {dim}")
                dim = None
        elif key == "spectrum":
            values = [number(float, p, lineno, "spectrum") for p in parts[1:]]
            if not values:
                error(lineno, "spectrum: needs at least one eigenvalue")
            elif None not in values:
                if all(0 < v < math.inf for v in values):
                    spectrum = tuple(values)
                else:
                    error(lineno, "spectrum: eigenvalues must be positive and finite")
        elif key == "output":
            output = rest.strip()
            if not output:
                error(lineno, "output: needs a directory")
        elif key == "formats":
            formats = tuple(parts[1:])
            if not formats or len(set(formats)) < len(formats) \
                    or not set(formats) <= set(FORMATS):
                error(lineno, f"formats: {rest!r} is not csv, json or both")
        elif key == "functional":
            if "=" not in rest:
                error(lineno, "functional definition needs 'name = expression'")
                continue
            name, source = (part.strip() for part in rest.split("=", 1))
            if not name.isidentifier():
                error(lineno, f"bad functional name {name!r}")
                continue
            if name in defs or name in BUILTIN_NAMES:
                error(lineno, f"functional {name!r} already defined")
                continue
            defs[name] = (source, lineno)
        elif key == "job":
            kind = rest.strip()
            if kind not in JOB_KINDS:
                error(lineno, f"unknown job kind {kind!r} "
                              f"(expected one of {', '.join(JOB_KINDS)})")
                continue
            current = {}
            jobs.append((lineno, kind, current))
        else:
            error(lineno, f"unknown key {key!r}")

    # ---- model: checked by building it ----
    model_line = first.get("model", 0)
    if model_family is None:
        error(1, "missing 'model' line")
        model_family = "iid_gaussian"
    # a value that failed on its own line stands in as None and adds no issue here
    if model_family == "explicit":
        if spectrum is None:
            if "spectrum" not in first:
                error(model_line, "explicit model needs a 'spectrum' line")
            spectrum = (1.0,) * (dim or 1)
        if dim is None:
            dim = len(spectrum)
        elif dim != len(spectrum):
            error(model_line, f"dim {dim} does not match spectrum length {len(spectrum)}")
    else:
        if "spectrum" in first:
            error(model_line, "'spectrum' is only valid with model explicit")
        if dim is None:
            if "dim" not in first:
                error(model_line or 1, "missing 'dim' line")
            dim = 1
    model_spec = ModelSpec(family=model_family, dim=dim, spectrum=spectrum)
    try:
        model = resolve_model(model_spec)
    except ValueError as e:
        error(model_line or 1, str(e))
        model = build_model(("iid_gaussian", max(dim, 1)))
    # ---- functional definitions and jobs: checked by resolving them ----
    sources = {name: source for name, (source, _) in defs.items()}

    def resolve(text):
        return resolve_functional(text, sources, model)

    for name, (_, lineno) in defs.items():
        try:
            resolve(name)
        except ValueError as e:
            error(lineno, f"functional {name!r}: {e}")
    job_specs = [_job_spec(kind, job_line, params, resolve, model.dim, error)
                 for job_line, kind, params in jobs]

    if issues:
        raise ConfigError(issues)
    return RunConfig(model=model_spec, functionals=tuple(sources.items()),
                     jobs=tuple(job_specs), output=output, formats=formats)


def _param_line(name: str, value) -> str:
    """The line of a job parameter that parses back to ``value``; more than
    one value takes the ``_list`` spelling where there is one."""
    if isinstance(value, tuple):
        if len(value) > 1 and f"{name}_list" in _PARAMS:
            name += "_list"
        value = " ".join(map(str, value))
    return f"  {name} {'true' if value is True else value}"


def serialize_config(config: RunConfig) -> str:
    """Canonical text form; ``parse_config(serialize_config(c)) == c``."""
    lines = [f"model {config.model.family}", f"dim {config.model.dim}"]
    if config.model.spectrum is not None:
        lines.append("spectrum " + " ".join(repr(v) for v in config.model.spectrum))
    lines.append(f"output {config.output}")
    lines.append("formats " + " ".join(config.formats))
    for name, source in config.functionals:
        lines.append(f"functional {name} = {source}")
    for job in config.jobs:
        lines.append(f"job {job.kind}")
        lines += [_param_line(f.name, getattr(job, f.name)) for f in fields(JobSpec)[1:]
                  if getattr(job, f.name) != f.default]
    return "\n".join(lines) + "\n"
