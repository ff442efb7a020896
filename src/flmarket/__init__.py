"""Desk-scale simulator of auction-based federated learning in a buyers' market.

Contracts are priced with procurement-auction closed forms under complete
and incomplete information, clients are scored with a Banzhaf-index
reputation mechanism, and reputations live in a tamper-evident
hash-chained ledger.
"""

__version__ = "0.1.0"
