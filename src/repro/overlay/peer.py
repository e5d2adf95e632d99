"""The peer model: path, routing table, replicas, local datastore.

A :class:`Peer` owns

* its **path** ``pi(p)`` — the binary prefix of the key space it is
  responsible for;
* a **routing table** ``rho(p, l)`` — for every level ``l < |pi(p)|``, a
  set of references to peers in the *complementary* subtrie at that level
  (paths starting with ``pi(p)[:l]`` + inverted bit), with exponentially
  increasing key-space distance — the small-world construction of
  Section 2;
* **replica references** ``sigma(p)`` — other peers sharing the same path
  (structural replication);
* a **local datastore** ``delta(p)`` holding the index entries whose key
  matches its path.

Peers are addressed by integer id inside a network; references are stored
as ids to keep the object graph flat and picklable.
"""

from __future__ import annotations

from repro.core.errors import OverlayError
from repro.storage.datastore import LocalDataStore


class Peer:
    """One simulated peer."""

    __slots__ = ("peer_id", "path", "routing_table", "replicas", "store", "online")

    def __init__(self, peer_id: int, path: str):
        self.peer_id = peer_id
        self.path = path
        #: routing_table[l] = list of peer ids with path prefix
        #: ``sibling_prefix(path, l)``; one list per level 0..len(path)-1.
        self.routing_table: list[list[int]] = [[] for __ in range(len(path))]
        #: ids of peers with the same path (data replication refs).
        self.replicas: list[int] = []
        self.store = LocalDataStore()
        self.online = True

    def references(self, level: int) -> list[int]:
        """``rho(p, level)`` — routing references at one trie level."""
        if not 0 <= level < len(self.path):
            raise OverlayError(
                f"peer {self.peer_id} has no routing level {level} "
                f"(path length {len(self.path)})"
            )
        return self.routing_table[level]

    def set_references(self, level: int, refs: list[int]) -> None:
        """Install the routing references for one level."""
        if not 0 <= level < len(self.path):
            raise OverlayError(
                f"peer {self.peer_id} has no routing level {level}"
            )
        self.routing_table[level] = list(refs)

    def responsible_for(self, key: str) -> bool:
        """Algorithm 1's responsibility test.

        True when the peer's path is a prefix of the key (full-width
        lookups) *or* the key is a proper prefix of the path (prefix
        queries that this peer's whole partition satisfies).
        """
        return key.startswith(self.path) or self.path.startswith(key)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Peer(id={self.peer_id}, path={self.path!r}, items={len(self.store)})"
