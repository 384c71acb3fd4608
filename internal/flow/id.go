// Package flow implements Iustitia's online classification pipeline
// (Figure 1 of the paper): SHA-1 flow-ID hashing of packet headers, the
// Classification Database (CDB) with FIN/RST and inactivity purging,
// per-flow payload buffering up to b bytes, entropy-feature classification
// of new flows, and routing of packets to per-class output queues.
package flow

import (
	"crypto/sha1"
	"encoding/binary"

	"iustitia/internal/packet"
)

// ID is a flow identifier: the SHA-1 hash of the flow's 5-tuple, exactly
// the 160-bit header hash the paper's CDB stores per record.
type ID [sha1.Size]byte

// IDOf hashes a 5-tuple into its flow ID.
func IDOf(t packet.FiveTuple) ID {
	wire := t.Marshal()
	return sha1.Sum(wire[:])
}

// Residue reduces the flow ID modulo n, the one rule by which flows are
// dealt to ParallelEngine shards and to ingest workers alike — so a worker
// only meets the shards of its own residue classes whenever the worker
// count divides the shard count. It reduces a full 64-bit word of the
// hash: a two-byte reduction (the old scheme) leaves only 65536 distinct
// values, which mod a non-power-of-two n skews the residue classes.
func (id ID) Residue(n int) int {
	return int(binary.BigEndian.Uint64(id[:8]) % uint64(n))
}

// RecordBits is the CDB record size the paper accounts: 160 bits of SHA-1
// hash, 32 bits of λ (last inter-arrival), and 2 bits of class label.
const RecordBits = 160 + 32 + 2
