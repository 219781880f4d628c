"""Result analysis: geomeans, speedups, table rendering."""

from repro.analysis.report import format_table, geomean, speedups

__all__ = ["format_table", "geomean", "speedups"]
