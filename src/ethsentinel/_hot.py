"""There is no compiled backend; the benchmark stamps this flag on its records."""

COMPILED = False
