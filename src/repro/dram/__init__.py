"""DRAM device substrate: organization, address mapping, bank state."""

from repro.dram.address import AddressMapper, Coord
from repro.dram.bank import BankState, RankState

__all__ = ["AddressMapper", "Coord", "BankState", "RankState"]
