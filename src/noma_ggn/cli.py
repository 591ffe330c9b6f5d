"""Sweep orchestration and CSV emission.

Subcommands map one-to-one onto the library's headline outputs: `pep`
(per-user analytic + Monte Carlo PEP curves), `diversity` (high-SNR slope
per user), `ber` (union bound + simulated BER), `selftest` (analytic-route
equivalence checks) and `print-config` (canonical config round-trip).

Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time
from dataclasses import dataclass

from .ggd import GGNoiseModel, lambda0
from .mc import estimate_pep_mc, simulate_ber
from .noma import BPSK, SystemConfig
from .pep import (
    NumericFailure,
    canonical_event,
    diversity_order,
    pep_closed_form,
    pep_direct,
    pep_exact,
    union_bound,
)
from .specfun import DomainError, QuadratureError

__all__ = ["SweepRecord", "RunParams", "ConfigError", "parse_config", "run_sweep", "main"]

METRICS = (
    "ber_sim",
    "ber_union",
    "diversity_slope",
    "pep_analytic",
    "pep_closed",
    "pep_mc",
)

_CONSTELLATIONS = {"bpsk": BPSK}

_DEFAULTS = {
    "users": "3",
    "power": "0.7,0.2,0.1",
    "alpha": "2",
    "snr_db": "0:5:40",
    "trials": "1000000",
    "seed": "1",
    "constellation": "bpsk",
}


class ConfigError(ValueError):
    """Malformed or inconsistent configuration input."""

    def __init__(self, message, line=None, column=None):
        where = ""
        if line is not None:
            where = f"line {line}, column {column or 1}: "
        super().__init__(where + message)


@dataclass(frozen=True)
class SweepRecord:
    """One output row of a sweep."""

    snr_db: float
    user: int
    metric: str
    alpha: float
    value: float
    ci_low: float | None = None
    ci_high: float | None = None

    def as_csv_row(self) -> str:
        def fmt(v):
            return "" if v is None else f"{v:.12g}"

        return ",".join(
            [
                f"{self.snr_db:.12g}",
                str(self.user),
                self.metric,
                f"{self.alpha:.12g}",
                fmt(self.value),
                fmt(self.ci_low),
                fmt(self.ci_high),
            ]
        )


CSV_HEADER = "snr_db,user,metric,alpha,value,ci_low,ci_high"

# a start:step:stop grid longer than this is rejected before it is built
_MAX_SNR_POINTS = 100_000


@dataclass(frozen=True)
class RunParams:
    """Parsed configuration: system side plus sweep parameters."""

    users: int
    power: tuple
    alpha: float
    snr_db: tuple
    snr_spec: str
    trials: int
    seed: int
    constellation_name: str
    metrics: tuple | None
    output: str | None

    def system_config(self, gamma_bar: float) -> SystemConfig:
        return SystemConfig(
            a=self.power,
            gamma_bar=gamma_bar,
            constellation=_CONSTELLATIONS[self.constellation_name],
            noise_alpha=self.alpha,
        )

    def canonical_text(self) -> str:
        lines = [
            f"users={self.users}",
            "power=" + ",".join(f"{v:.12g}" for v in self.power),
            f"alpha={self.alpha:.12g}",
            f"snr_db={self.snr_spec}",
            f"trials={self.trials}",
            f"seed={self.seed}",
            f"constellation={self.constellation_name}",
        ]
        if self.metrics is not None:
            lines.append("metrics=" + ",".join(self.metrics))
        if self.output is not None:
            lines.append(f"output={self.output}")
        return "\n".join(lines) + "\n"


def _parse_snr_spec(spec: str, line, col) -> tuple:
    parts = spec.split(":")
    try:
        if len(parts) not in (1, 3):
            raise ValueError
        values = tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError(
            f"snr_db must be a number or start:step:stop, got {spec!r}", line, col
        ) from None
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"snr_db values must be finite, got {spec!r}", line, col)
    if len(values) == 1:
        grid = values
    else:
        start, step, stop = values
        if step <= 0 or stop < start:
            raise ConfigError(f"invalid snr_db range {spec!r}", line, col)
        # +inf for a step so small the quotient overflows; span < max keeps
        # the point count floor(span) + 1 at or below the cap
        span = (stop - start) / step + 1e-9
        if not span < _MAX_SNR_POINTS:
            raise ConfigError(
                f"snr_db range {spec!r} has more than {_MAX_SNR_POINTS} points", line, col
            )
        n = int(math.floor(span)) + 1
        grid = tuple(start + i * step for i in range(n))
    try:
        _db_to_linear(max(grid))
    except OverflowError:
        raise ConfigError(
            f"snr_db values must give a finite linear SNR, got {max(grid):g} dB", line, col
        ) from None
    return grid


def parse_config(text: str) -> RunParams:
    """Parse a line-oriented key=value document; '#' starts a comment.

    Unknown keys are rejected; defaults reproduce the three-user reference
    setup (power 0.7/0.2/0.1, Gaussian noise, 0-40 dB sweep).
    """
    return _parse_config(text, _DEFAULTS)


def _parse_config(text: str, defaults: dict) -> RunParams:
    """parse_config with the values of the keys the document leaves out."""
    values = dict(defaults)
    positions = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if "=" not in line:
            raise ConfigError("expected key=value", lineno, 1)
        key, _, value = line.partition("=")
        col_value = len(key) + 2
        key = key.strip()
        value = value.strip()
        if key not in (*_DEFAULTS, "metrics", "output"):
            raise ConfigError(f"unknown key {key!r}", lineno, 1)
        if not value:
            raise ConfigError(f"empty value for {key!r}", lineno, col_value)
        if key in values and key in positions:
            raise ConfigError(f"duplicate key {key!r}", lineno, 1)
        values[key] = value
        positions[key] = (lineno, col_value)

    def pos(key):
        return positions.get(key, (None, None))

    def parse_num(key, conv, check, what):
        try:
            v = conv(values[key])
        except ValueError:
            raise ConfigError(
                f"{key} must be {what}, got {values[key]!r}", *pos(key)
            ) from None
        if not check(v):
            raise ConfigError(f"{key}={v!r} out of range", *pos(key))
        return v

    users = parse_num("users", int, lambda v: v >= 1, "a positive integer")
    alpha = parse_num("alpha", float, lambda v: v > 0, "a positive number")
    try:
        lambda0(alpha)
    except DomainError as exc:
        raise ConfigError(str(exc), *pos("alpha")) from None
    trials = parse_num("trials", int, lambda v: v >= 1, "a positive integer")
    seed = parse_num("seed", int, lambda v: v >= 0, "a nonnegative integer")
    try:
        power = tuple(float(p) for p in values["power"].split(","))
    except ValueError:
        raise ConfigError(
            f"power must be a comma list of numbers, got {values['power']!r}",
            *pos("power"),
        ) from None
    if len(power) != users:
        raise ConfigError(
            f"power list has {len(power)} entries for users={users}", *pos("power")
        )
    constellation = values["constellation"].lower()
    if constellation not in _CONSTELLATIONS:
        raise ConfigError(
            f"unknown constellation {values['constellation']!r}", *pos("constellation")
        )
    snr_db = _parse_snr_spec(values["snr_db"], *pos("snr_db"))
    metrics = None
    if "metrics" in values:
        metrics = tuple(m.strip() for m in values["metrics"].split(","))
        for m in metrics:
            if m not in METRICS:
                raise ConfigError(f"unknown metric {m!r}", *pos("metrics"))
    params = RunParams(
        users=users,
        power=power,
        alpha=alpha,
        snr_db=snr_db,
        snr_spec=values["snr_db"],
        trials=trials,
        seed=seed,
        constellation_name=constellation,
        metrics=metrics,
        output=values.get("output"),
    )
    # surface power-vector violations (ordering, sum) as config errors
    try:
        params.system_config(gamma_bar=1.0)
    except DomainError as exc:
        raise ConfigError(str(exc), *pos("power")) from None
    return params


def _db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def run_sweep(params: RunParams, metrics: tuple) -> list:
    """Evaluate the requested metrics over the SNR grid.

    Rows come back sorted by (snr_db, user, metric). Numeric failures are
    re-raised as NumericFailure and DomainError as ConfigError, each naming
    the offending metric.
    """
    model = GGNoiseModel.normalized(params.alpha)
    records = []
    users = range(1, params.users + 1)
    for m in metrics:
        if m in ("pep_closed",) and params.alpha not in (1.0, 2.0):
            raise ConfigError(f"metric {m} requires alpha of 1 or 2")
    for metric in metrics:
        try:
            if metric == "diversity_slope":
                lo_db, hi_db = params.snr_db[0], params.snr_db[-1]
                if lo_db >= hi_db:
                    raise ConfigError("diversity_slope needs an SNR window")
                mid = 0.5 * (lo_db + hi_db)
                for l in users:
                    curve = {
                        db: pep_exact(
                            canonical_event(params.system_config(_db_to_linear(db)), l),
                            model,
                        ).value
                        for db in (lo_db, hi_db)
                    }
                    est = diversity_order(curve, (lo_db, hi_db))
                    records.append(
                        SweepRecord(mid, l, metric, params.alpha, est.d_s)
                    )
                continue
            grid = [(db, params.system_config(_db_to_linear(db))) for db in params.snr_db]
            if metric in ("pep_mc", "ber_sim"):
                # one estimator call per metric: all (SNR, user) points share
                # each block's draws
                points = [(db, l) for db, _ in grid for l in users]
                if metric == "pep_mc":
                    estimates = estimate_pep_mc(
                        [canonical_event(config, l) for _, config in grid for l in users],
                        model, trials=params.trials, seed=params.seed,
                    )
                else:
                    per_config = simulate_ber(
                        [config for _, config in grid],
                        model, trials=params.trials, seed=params.seed,
                    )
                    estimates = [est for row in per_config for est in row]
                records.extend(
                    SweepRecord(db, l, metric, params.alpha, est.point, est.ci_low, est.ci_high)
                    for (db, l), est in zip(points, estimates)
                )
                continue
            for db, config in grid:
                for l in users:
                    if metric == "pep_analytic":
                        value = pep_exact(canonical_event(config, l), model).value
                    elif metric == "pep_closed":
                        value = pep_closed_form(canonical_event(config, l), params.alpha).value
                    elif metric == "ber_union":
                        value = union_bound(config, model, l).p_ub
                    else:
                        raise ConfigError(f"unknown metric {metric!r}")
                    records.append(SweepRecord(db, l, metric, params.alpha, value))
        except (QuadratureError, NumericFailure) as exc:
            raise NumericFailure(f"metric {metric!r}: {exc}") from exc
        except DomainError as exc:
            # the library rejects the point itself, e.g. an SNR whose event
            # quantities overflow a double
            raise ConfigError(f"metric {metric!r}: {exc}") from exc
    records.sort(key=lambda r: (r.snr_db, r.user, r.metric))
    return records


def _emit(records: list, output: str | None) -> None:
    lines = [CSV_HEADER] + [r.as_csv_row() for r in records]
    text = "\n".join(lines) + "\n"
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


_SUBCOMMAND_METRICS = {
    "pep": ("pep_analytic", "pep_mc"),
    "diversity": ("diversity_slope",),
    "ber": ("ber_union", "ber_sim"),
}

# defaults of a subcommand that differ from _DEFAULTS; a config file
# overrides them like any other default
_SUBCOMMAND_DEFAULTS = {"diversity": {"snr_db": "60:20:80"}}


def _timed(route, *args) -> tuple:
    """route(*args).value and its wall time in seconds."""
    start = time.perf_counter()
    value = route(*args).value
    return value, time.perf_counter() - start


def _selftest() -> int:
    """Cross-route agreement on the reference three-user configuration. Each
    line gives the wall time of the two routes its check compares."""
    failures = 0
    for alpha in (0.5, 1.0, 2.0):
        model = GGNoiseModel.normalized(alpha)
        for db in (0.0, 20.0, 40.0):
            params = parse_config(f"alpha={alpha}\nsnr_db={db}")
            config = params.system_config(_db_to_linear(db))
            for l in range(1, 4):
                event = canonical_event(config, l)
                exact, exact_s = _timed(pep_exact, event, model)
                checks = [("direct", *_timed(pep_direct, event, model))]
                if alpha in (1.0, 2.0):
                    checks.append(("closed", *_timed(pep_closed_form, event, alpha)))
                for name, other, other_s in checks:
                    rel = abs(exact - other) / max(abs(exact), 1e-300)
                    ok = rel < 1e-6
                    failures += 0 if ok else 1
                    print(
                        f"{'PASS' if ok else 'FAIL'} alpha={alpha} snr={db:g}dB "
                        f"user={l} quadrature-vs-{name} rel_err={rel:.2e} "
                        f"time={1e3 * (exact_s + other_s):.2f}ms"
                    )
    return 0 if failures == 0 else 3


def _read_config_arg(path: str | None, command: str) -> RunParams:
    text = ""
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return _parse_config(text, {**_DEFAULTS, **_SUBCOMMAND_DEFAULTS.get(command, {})})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="noma-ggn",
        description="NOMA error-rate analysis under generalized Gaussian noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("pep", "per-user PEP curves (analytic + Monte Carlo)"),
        ("diversity", "per-user high-SNR diversity slope"),
        ("ber", "BER union bound and simulated BER"),
        ("print-config", "echo the parsed configuration canonically"),
        ("selftest", "run the analytic-route equivalence checks"),
    ):
        p = sub.add_parser(name, help=help_text)
        if name != "selftest":
            p.add_argument("config", nargs="?", help="key=value config file")
            p.add_argument("-o", "--output", help="CSV output path (default stdout)")
    args = parser.parse_args(argv)

    if args.command == "selftest":
        return _selftest()
    try:
        params = _read_config_arg(args.config, args.command)
        if args.output:
            params = dataclasses.replace(params, output=args.output)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    if args.command == "print-config":
        out = params.canonical_text()
        if params.output:
            with open(params.output, "w", encoding="utf-8") as fh:
                fh.write(out)
        else:
            sys.stdout.write(out)
        return 0
    metrics = params.metrics or _SUBCOMMAND_METRICS[args.command]
    try:
        records = run_sweep(params, metrics)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NumericFailure, QuadratureError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    _emit(records, params.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
