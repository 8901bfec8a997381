// Sharding and cross-shard coordination messages (OpRoute,
// OpRouteInstall, OpBegin, OpCommitting, OpDone, OpHandoff,
// OpHandoffInstall) plus the per-shard status report that OpStatus
// answers with. Same codec rules as message.go: explicit little-endian
// fields, uvarint byte strings, exactly one valid encoding, every
// bound checked before slicing.
//
// The routing table itself is defined and encoded by internal/shard
// (the one structure shared verbatim by servers, clients, and the
// CLI); this layer carries its encoding as an opaque byte string in
// Request.Arg / Response.Result, so wire stays independent of the
// routing policy.
package wire

import (
	"encoding/binary"

	"repro/internal/ids"
)

// HandoffReq is the argument of OpHandoff: move one shard from the
// addressed node to Target.
type HandoffReq struct {
	// Shard is the shard to move; the addressed node must host it.
	Shard uint32
	// Target is the receiving node's address (host:port), which must
	// accept OpHandoffInstall.
	Target string
}

// HandoffFrames is the argument of OpHandoffInstall: one step of an
// inbound shard handoff. The source drains the shard's guardian,
// compacts its log via housekeeping, then ships the compacted log as
// append runs (reusing the replication codec and its refusal
// semantics) followed by a final Done step that recovers the guardian
// on the receiver and publishes the rehomed routing table.
type HandoffFrames struct {
	// Shard is the shard being received.
	Shard uint32
	// Backend is the record layout of the shipped log (a core.Backend
	// value), fixed by the first step; the receiver recovers with it.
	Backend uint8
	// BlockSize is the source volume's block size in bytes.
	BlockSize uint32
	// Done marks the final step: no frames, recover and adopt the
	// guardian, install Table.
	Done bool
	// App carries a contiguous run of raw stable-log frames, exactly
	// as replication ships them (empty on the Done step). The
	// receiver's ack/refusal semantics are RepAppend's: a mismatched
	// Start acks the unchanged tail and the source rewinds.
	App RepAppend
	// Table is the rehomed routing table's encoding (Done step only):
	// the source's table with this shard's address rewritten to the
	// receiver, version bumped.
	Table []byte
}

// ShardStatus is one shard's row in a StatusReport.
type ShardStatus struct {
	// ID is the shard id.
	ID uint32
	// Role is the hosting guardian's replication role (standalone
	// unless the shard's log is replicated).
	Role Role
	// Durable is the shard's durable log prefix in bytes.
	Durable uint64
	// IdxHits / IdxMisses are the shard guardian's live-version index
	// counters (zero with the index disabled).
	IdxHits   uint64
	IdxMisses uint64
}

// StatusReport answers OpStatus: the node-level replication report
// plus one row per hosted shard. A node hosting only its default
// guardian reports no shard rows — the pre-sharding report, extended.
type StatusReport struct {
	// Rep is the node's replication role and health (the default
	// guardian's, on nodes that also host shards).
	Rep RepStatus
	// Shards lists every hosted shard in ascending id order.
	Shards []ShardStatus
}

const shardStatusSize = 29

// EncodeHandoffReq renders h as a request argument.
func EncodeHandoffReq(h HandoffReq) []byte {
	out := make([]byte, 0, 4+len(h.Target)+2)
	out = binary.LittleEndian.AppendUint32(out, h.Shard)
	return appendBytes(out, []byte(h.Target))
}

// DecodeHandoffReq parses a request argument as a HandoffReq.
func DecodeHandoffReq(b []byte) (HandoffReq, error) {
	c := cursor{what: "handoff", b: b}
	return decoded(HandoffReq{Shard: c.u32(), Target: string(c.bytes())}, &c)
}

// EncodeHandoffFrames renders f as a request argument.
func EncodeHandoffFrames(f HandoffFrames) []byte {
	app := EncodeRepAppend(f.App)
	out := make([]byte, 0, 4+1+4+1+len(app)+len(f.Table)+8)
	out = binary.LittleEndian.AppendUint32(out, f.Shard)
	out = append(out, f.Backend)
	out = binary.LittleEndian.AppendUint32(out, f.BlockSize)
	done := byte(0)
	if f.Done {
		done = 1
	}
	out = append(out, done)
	out = appendBytes(out, app)
	return appendBytes(out, f.Table)
}

// DecodeHandoffFrames parses a request argument as a HandoffFrames.
func DecodeHandoffFrames(b []byte) (HandoffFrames, error) {
	c := cursor{what: "handoff.install", b: b}
	return decoded(HandoffFrames{
		Shard: c.u32(), Backend: c.u8(), BlockSize: c.u32(), Done: c.bool(),
		App: nested(&c, DecodeRepAppend), Table: c.bytes(),
	}, &c)
}

// EncodeShardStatus renders s as one fixed-size row.
func EncodeShardStatus(s ShardStatus) []byte {
	out := make([]byte, 0, shardStatusSize)
	out = binary.LittleEndian.AppendUint32(out, s.ID)
	out = append(out, byte(s.Role))
	out = binary.LittleEndian.AppendUint64(out, s.Durable)
	out = binary.LittleEndian.AppendUint64(out, s.IdxHits)
	return binary.LittleEndian.AppendUint64(out, s.IdxMisses)
}

// DecodeShardStatus parses one fixed-size row as a ShardStatus.
func DecodeShardStatus(b []byte) (ShardStatus, error) {
	c := cursor{what: "shard status", b: b}
	return decoded(ShardStatus{ID: c.u32(), Role: c.role(), Durable: c.u64(), IdxHits: c.u64(), IdxMisses: c.u64()}, &c)
}

// EncodeStatusReport renders r as a response result.
func EncodeStatusReport(r StatusReport) []byte {
	out := make([]byte, 0, 2+repStatusSize+len(r.Shards)*shardStatusSize+2)
	out = appendBytes(out, EncodeRepStatus(r.Rep))
	out = binary.AppendUvarint(out, uint64(len(r.Shards)))
	for _, s := range r.Shards {
		out = append(out, EncodeShardStatus(s)...)
	}
	return out
}

// DecodeStatusReport parses a response result as a StatusReport. Shard
// rows must arrive in strictly ascending id order — the one canonical
// encoding of a shard set.
func DecodeStatusReport(b []byte) (StatusReport, error) {
	c := cursor{what: "status report", b: b}
	r := StatusReport{Rep: nested(&c, DecodeRepStatus)}
	for i, n := 0, c.count(shardStatusSize); i < n && c.err == nil; i++ {
		s, err := DecodeShardStatus(c.take(shardStatusSize))
		switch {
		case err != nil:
			c.err = err
		case i > 0 && s.ID <= r.Shards[i-1].ID:
			c.fail("shard rows out of order")
		}
		r.Shards = append(r.Shards, s)
	}
	return decoded(r, &c)
}

// EncodeActionID renders an action id as a 12-byte result (OpBegin's
// answer): the same u32 coordinator + u64 seq layout the request
// header uses.
func EncodeActionID(aid ids.ActionID) []byte {
	out := make([]byte, 0, 12)
	out = binary.LittleEndian.AppendUint32(out, uint32(aid.Coordinator))
	return binary.LittleEndian.AppendUint64(out, aid.Seq)
}

// DecodeActionID parses a 12-byte action id.
func DecodeActionID(b []byte) (ids.ActionID, error) {
	c := cursor{what: "action id", b: b}
	return decoded(ids.ActionID{Coordinator: ids.GuardianID(c.u32()), Seq: c.u64()}, &c)
}

// EncodeGuardianIDs renders a participant list as OpCommitting's
// argument: a uvarint count followed by one u32 per guardian, in the
// caller's order (the coordinator's sorted participant list).
func EncodeGuardianIDs(gids []ids.GuardianID) []byte {
	out := make([]byte, 0, 2+4*len(gids))
	out = binary.AppendUvarint(out, uint64(len(gids)))
	for _, g := range gids {
		out = binary.LittleEndian.AppendUint32(out, uint32(g))
	}
	return out
}

// DecodeGuardianIDs parses OpCommitting's argument.
func DecodeGuardianIDs(b []byte) ([]ids.GuardianID, error) {
	c := cursor{what: "guardian ids", b: b}
	var gids []ids.GuardianID
	for i, n := 0, c.count(4); i < n; i++ {
		gids = append(gids, ids.GuardianID(c.u32()))
	}
	return decoded(gids, &c)
}
