"""Synthetic dataset substrate.

The paper evaluates on the Public BI Benchmark (real Tableau workbooks) and
TPC-H. Neither can be downloaded offline, so this package generates synthetic
stand-ins that reproduce the *distribution shapes* compression behaviour
depends on: run structure, cardinality, skew, decimal-ness of doubles,
string structure (URLs, codes, names) and NULL density. See DESIGN.md.

* :mod:`repro.datagen.distributions` — reusable column generators.
* :mod:`repro.datagen.publicbi` — Public-BI-like named datasets and columns
  (including every column of the paper's Tables 3 and 4).
* :mod:`repro.datagen.tpch` — TPC-H-like tables.
* :mod:`repro.datagen.csvio` — CSV writer/reader for the Section 6.4
  compression-speed experiment.
* :mod:`repro.datagen.scheme_workloads` — one column generator per scheme
  family (the selective-execution sweep and its bit-identity tests).
"""

from repro.datagen.publicbi import generate_dataset, generate_suite, named_column
from repro.datagen.tpch import generate_tpch

__all__ = ["generate_dataset", "generate_suite", "named_column", "generate_tpch"]
