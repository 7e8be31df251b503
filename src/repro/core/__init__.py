"""The public facade: a main-memory relational database.

:class:`~repro.core.database.MainMemoryDatabase` wires the storage
substrate, access methods, operators, and the Section 4 planner into the
interface a downstream user programs against.  The Section 5 recovery
subsystem lives in :mod:`repro.recovery`, and the server's recoverable
bank in :mod:`repro.server.bank`.  :mod:`repro.core.locks` is the seam
through which every tracked engine lock is made.
"""

from repro.core.database import MainMemoryDatabase

__all__ = ["MainMemoryDatabase"]
