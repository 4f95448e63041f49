"""Plot-ready data files derived from a results table.

Each figure is a whitespace separated text file: one row per node count, one
mean and one stddev column per protocol series.  Values are copied verbatim
from the aggregate rows of the results CSV; nothing is recomputed here.  The
offered-load reference for figure 1 is the one exception: it comes from the
resolved sweep configuration, since it is an input line, not a measurement.
"""

import math
from typing import NamedTuple

from .errors import ConfigError
from .sweep import ResultsTable


class FigureDef(NamedTuple):
    column: str
    title: str
    log_scale: bool = False
    offered_load: bool = False


FIGURES = {
    1: FigureDef("throughput_bps", "throughput vs number of nodes",
                 offered_load=True),
    2: FigureDef("mean_delay_s", "mean packet delay vs number of nodes"),
    3: FigureDef("mean_delay_s", "mean packet delay vs number of nodes",
                 log_scale=True),
    4: FigureDef("avg_end_queue", "average end-of-run queue size"),
    5: FigureDef("collision_fraction", "fraction of collision slots"),
    6: FigureDef("q_empty_per_tx", "queue empty events per transmission"),
    7: FigureDef("avg_end_stage", "average end-of-run backoff stage"),
}


def figure_filename(figure: int) -> str:
    fig = FIGURES[figure]
    suffix = "_log" if fig.log_scale else ""
    return f"fig{figure}_{fig.column}{suffix}.dat"


def emit_figure_data(table: ResultsTable, figure: int) -> str:
    """Render one figure's data file from aggregate results."""
    if figure not in FIGURES:
        raise ConfigError(f"unknown figure {figure}; pick 1..7")
    fig = FIGURES[figure]
    for label in table.labels:
        for n in table.node_counts:
            if (label, n) not in table.mean or (label, n) not in table.stddev:
                raise ConfigError(
                    f"results are missing aggregates for ({label}, n={n})")

    headers = ["n_nodes"]
    if fig.offered_load:
        if table.meta is None:
            raise ConfigError(
                "figure 1 needs the resolved config next to the results file "
                "to draw the offered-load line")
        headers.append("offered_load_bps")
        rate = table.meta.base.arrival_rate
        bits = table.meta.base.timing.payload_bits
    for label in table.labels:
        headers.append(f"{label}:mean")
        headers.append(f"{label}:stddev")

    lines = [f"# figure {figure}: {fig.title}"]
    if fig.log_scale:
        lines.append("# yscale: log")
    lines.append("# " + " ".join(headers))
    for n in table.node_counts:
        row = [str(n)]
        if fig.offered_load:
            offered = n * rate * bits
            row.append(repr(offered) if math.isfinite(offered) else "inf")
        for label in table.labels:
            row.append(repr(table.mean[(label, n)][fig.column]))
            row.append(repr(table.stddev[(label, n)][fig.column]))
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"
