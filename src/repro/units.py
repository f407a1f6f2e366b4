"""Physical-unit annotation vocabulary for the selection chain.

The paper's whole contribution is a chain of physical quantities —
power (W) x time (s) -> energy (J), EDP (J·s), ED²P (J·s²), clocks in
MHz — flowing from :mod:`repro.gpusim` through :mod:`repro.core` into
:mod:`repro.serving`.  This module gives those quantities *declarable*
types: ``Annotated`` aliases that are plain ``float``/``ndarray`` at
runtime (zero behavioural impact; every consumer file uses
``from __future__ import annotations`` so they are never even
evaluated).  They document a signature's units for the reader, and the
tags stay introspectable through
``typing.get_type_hints(..., include_extras=True)``.  No checker reads
them: a unit slip in the selection chain moves a number pinned by the
bitwise golden tests (``tests/golden/``), which is where it is caught.

Declaring a new unit: add a :class:`UnitTag` constant and an
``Annotated`` alias here, then annotate the producing/consuming
signatures with the alias.
"""

from __future__ import annotations

from typing import Annotated

import numpy as np

__all__ = [
    "UnitTag",
    "MHz",
    "MHzArray",
    "Watts",
    "WattsArray",
    "Seconds",
    "SecondsArray",
    "Joules",
    "JoulesArray",
    "EDPScore",
    "EDPArray",
    "ED2PScore",
    "ED2PArray",
    "Fraction",
    "FractionArray",
]


class UnitTag(str):
    """Marker string placed inside ``Annotated[...]`` to declare a unit.

    Subclassing ``str`` keeps the tag introspectable at runtime
    (``typing.get_type_hints(..., include_extras=True)``) while staying
    trivially serialisable.
    """

    __slots__ = ()


#: Core SM clock in megahertz (dimension: Hz).
MHz = Annotated[float, UnitTag("MHz")]
MHzArray = Annotated[np.ndarray, UnitTag("MHz")]

#: Board power in watts (dimension: W).
Watts = Annotated[float, UnitTag("W")]
WattsArray = Annotated[np.ndarray, UnitTag("W")]

#: Wall-clock / component time in seconds (dimension: s).
Seconds = Annotated[float, UnitTag("s")]
SecondsArray = Annotated[np.ndarray, UnitTag("s")]

#: Energy in joules (dimension: W·s) — paper Eq. 8.
Joules = Annotated[float, UnitTag("J")]
JoulesArray = Annotated[np.ndarray, UnitTag("J")]

#: Energy-delay product (dimension: W·s²; paper Section 4.4).
EDPScore = Annotated[float, UnitTag("J*s")]
EDPArray = Annotated[np.ndarray, UnitTag("J*s")]

#: Energy-delay-squared product (dimension: W·s³).
ED2PScore = Annotated[float, UnitTag("J*s^2")]
ED2PArray = Annotated[np.ndarray, UnitTag("J*s^2")]

#: Dimensionless ratio/fraction (activity levels, degradation bounds).
Fraction = Annotated[float, UnitTag("1")]
FractionArray = Annotated[np.ndarray, UnitTag("1")]
