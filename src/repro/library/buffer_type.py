"""A single buffer type under the linear delay model."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import LibraryError
from repro.units import to_fF, to_ps


@dataclass(frozen=True)
class BufferType:
    """A buffer (or inverter) characterized by the linear delay model.

    Inserting this buffer in front of a subtree with downstream
    capacitance ``C_down`` adds delay ``intrinsic_delay +
    driving_resistance * C_down`` and presents ``input_capacitance``
    to the upstream net.

    Attributes:
        name: Human-readable identifier, unique within a library.
        driving_resistance: Output resistance ``R_b`` in ohms.
        input_capacitance: Input pin capacitance ``C_b`` in farads.
        intrinsic_delay: Intrinsic delay ``K_b`` in seconds.
        cost: Abstract cost (area, power, ...) used only by the
            cost-bounded extension; the DATE-2005 objective ignores it.
        inverting: Whether the cell inverts the signal.  The DATE-2005
            algorithms treat all cells as non-inverting; the
            polarity-aware extension (:mod:`repro.core.polarity`)
            honours this flag and sink polarities.
        max_load: Optional maximum capacitance the cell may drive
            (farads); ``None`` means unconstrained.  Honoured by every
            algorithm: candidates exceeding it are never buffered with
            this cell.
    """

    name: str
    driving_resistance: float
    input_capacitance: float
    intrinsic_delay: float
    cost: float = field(default=1.0)
    inverting: bool = field(default=False)
    max_load: Optional[float] = field(default=None)

    def __post_init__(self) -> None:
        for label, value in (
            ("driving resistance", self.driving_resistance),
            ("input capacitance", self.input_capacitance),
            ("intrinsic delay", self.intrinsic_delay),
            ("cost", self.cost),
            ("max_load", 0.0 if self.max_load is None else self.max_load),
        ):
            # NaN slips through every ordered comparison below, and a
            # non-finite parameter makes the DP's arithmetic meaningless.
            if not math.isfinite(value):
                raise LibraryError(
                    f"buffer {self.name!r}: {label} must be finite, got {value}"
                )
        if self.driving_resistance <= 0.0:
            raise LibraryError(
                f"buffer {self.name!r}: driving resistance must be positive, "
                f"got {self.driving_resistance}"
            )
        if self.input_capacitance < 0.0:
            raise LibraryError(
                f"buffer {self.name!r}: input capacitance must be non-negative, "
                f"got {self.input_capacitance}"
            )
        if self.intrinsic_delay < 0.0:
            raise LibraryError(
                f"buffer {self.name!r}: intrinsic delay must be non-negative, "
                f"got {self.intrinsic_delay}"
            )
        if self.cost < 0.0:
            raise LibraryError(
                f"buffer {self.name!r}: cost must be non-negative, got {self.cost}"
            )
        if self.max_load is not None and self.max_load <= 0.0:
            raise LibraryError(
                f"buffer {self.name!r}: max_load must be positive or None, "
                f"got {self.max_load}"
            )

    def delay(self, downstream_capacitance: float) -> float:
        """Buffer delay driving ``downstream_capacitance`` (farads), seconds."""
        return self.intrinsic_delay + self.driving_resistance * downstream_capacitance

    def dominates(self, other: "BufferType") -> bool:
        """True if this buffer is at least as good as ``other`` in R, C, K
        and load limit, with the same polarity behaviour.

        A dominated buffer can never appear in an optimal solution that
        its dominator could not match, so libraries may drop it.
        Cost is intentionally ignored: with the cost extension a cheaper
        but electrically worse buffer can still be useful.
        """
        if self.inverting != other.inverting:
            return False
        # self must be able to drive every load other can.
        if self.max_load is not None and (
            other.max_load is None or self.max_load < other.max_load
        ):
            return False
        return (
            self.driving_resistance <= other.driving_resistance
            and self.input_capacitance <= other.input_capacitance
            and self.intrinsic_delay <= other.intrinsic_delay
        )

    def __str__(self) -> str:
        kind = "INV" if self.inverting else "BUF"
        return (
            f"{self.name}[{kind}](R={self.driving_resistance:.0f}ohm, "
            f"C={to_fF(self.input_capacitance):.2f}fF, "
            f"K={to_ps(self.intrinsic_delay):.1f}ps)"
        )
