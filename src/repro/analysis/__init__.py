"""Analysis utilities: empirical CDFs, percentile series, and the ASCII
table/figure rendering the experiment runners print."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "cdf": ("EmpiricalCdf",),
    "series": ("percentile_bands", "resample_mean"),
    "tables": ("format_table", "format_figure_series", "render_cdf_table"),
})
