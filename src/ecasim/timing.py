"""Channel timing constants and slot duration arithmetic.

All durations are microseconds, all rates are bits per microsecond, matching
the usual 802.11 OFDM parameter tables.  A contention slot is either an idle
slot of fixed width or an atomic data/ACK exchange; the exchange length is the
only place payload size enters the clock.
"""

import math
from dataclasses import dataclass, fields

from .errors import ConfigError


@dataclass(frozen=True)
class TimingTable:
    slot_empty: float = 9.0     # idle slot width
    sifs: float = 16.0
    difs: float = 34.0
    phy_header: float = 20.0    # preamble + PLCP, charged once per frame
    data_rate: float = 54.0     # payload bits per microsecond
    ack_rate: float = 24.0      # control bits per microsecond
    ack_bits: int = 112
    payload_bits: int = 12000   # MAC payload carried by one packet

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            try:
                ok = value > 0 and math.isfinite(value)
            except OverflowError:   # an int too large for a float
                ok = False
            if not ok:
                raise ConfigError(f"timing field {f.name} must be finite and "
                                  f"positive, got {value}")

    def exchange_us(self, batch_bits: int) -> float:
        """Duration of one full data/ACK exchange carrying batch_bits.

        DIFS, then the data frame (header plus aggregated payload), then SIFS
        and the ACK frame.  A collision occupies the channel for the same span
        as the longest frame involved, its ACK timeout charged as an ACK, so
        the caller passes the largest batch.
        """
        return (self.difs
                + self.phy_header + batch_bits / self.data_rate
                + self.sifs
                + self.phy_header + self.ack_bits / self.ack_rate)


DEFAULT_TIMING = TimingTable()
