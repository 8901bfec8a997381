// Replication and introspection messages (OpRepAppend, OpRepHeartbeat,
// OpRepSnapshot, OpStatus). They travel inside Request.Arg /
// Response.Result, so the frame layer's CRC and correlation ids apply
// unchanged; the codecs here follow the same rules as message.go —
// explicit little-endian fields, uvarint byte strings, exactly one
// valid encoding, every bound checked before slicing.
//
// The shipped log frames themselves (RepAppend.Frames) are opaque to
// this layer: they carry their own per-frame CRC chain, validated by
// stablelog.ParseFrames on the receiver, so corruption is detected
// end to end even if it slips past the transport CRC.
package wire

import (
	"encoding/binary"
	"fmt"
)

// Role is a server's replication role, reported by OpStatus.
type Role uint8

const (
	// RoleStandalone: an unreplicated server (no primary, no backups).
	RoleStandalone Role = iota + 1
	// RolePrimary: ships log frames to backups and quorum-gates forces.
	RolePrimary
	// RoleBackup: receives, persists, and acks shipped frames; serves
	// nothing until promoted.
	RoleBackup
)

var roleNames = [...]string{
	RoleStandalone: "standalone",
	RolePrimary:    "primary",
	RoleBackup:     "backup",
}

func (r Role) String() string {
	if int(r) < len(roleNames) && roleNames[r] != "" {
		return roleNames[r]
	}
	return fmt.Sprintf("role(%d)", uint8(r))
}

// RepAppend ships a contiguous run of raw stable-log frames.
type RepAppend struct {
	// Epoch is the sender's replication epoch; it increases by one at
	// every promotion, so a deposed primary's appends are recognizably
	// stale (the receiver acks with its own, higher epoch and applies
	// nothing).
	Epoch uint64
	// Start is the byte offset the run begins at; it must equal the
	// receiver's durable tail or the receiver acks its actual tail and
	// the sender rewinds.
	Start uint64
	// PrevLen is the frame length of the entry preceding Start (0 at
	// offset 0), cross-checked against the receiver's own tail so a
	// same-offset divergence is caught before any byte is applied.
	PrevLen uint32
	// Frames is the raw frame run (stablelog.ReadRaw output).
	Frames []byte
}

// RepAck is a replica's durability acknowledgment, answering every
// rep.* request. Applied distinguishes the in-band refusal explicitly,
// so a sender never has to infer the outcome from the Durable offset
// alone — a refusing replica's tail can coincide byte-for-byte with
// the offset an applied run would have reached (a rejoined replica
// holding old-history bytes), and offsets the sender never shipped
// must never be adopted as replicated coverage. An Epoch above the
// sender's own means the sender has been deposed.
type RepAck struct {
	// Epoch is the receiver's replication epoch.
	Epoch uint64
	// Durable is the receiver's durable log prefix in bytes.
	Durable uint64
	// Applied reports that the request's mutation took effect: an
	// append's run was validated, persisted, and forced, or a snapshot
	// offer's reset completed. False is the refusal (or, for a
	// heartbeat, simply "nothing to apply"): Durable names the
	// receiver's unchanged tail, whose content the sender must not
	// assume matches its own log.
	Applied bool
}

// RepHeartbeat probes a replica: no data, just the sender's epoch and
// durable offset so the replica can report how far it lags.
type RepHeartbeat struct {
	// Epoch is the sender's replication epoch.
	Epoch uint64
	// Durable is the sender's durable log prefix in bytes.
	Durable uint64
}

// RepSnapshot is the snapshot-offer for a lagging or diverged replica:
// discard the received log entirely and re-ack offset 0. The primary
// then ships its whole current log — compacted by housekeeping to live
// state (ch. 5), which is exactly what makes the "snapshot" small —
// through the ordinary append path.
type RepSnapshot struct {
	// Epoch is the sender's replication epoch.
	Epoch uint64
}

// RepPromote is the optional argument of OpPromote: the operator's
// safety floor for an explicit failover.
type RepPromote struct {
	// MinDurable refuses the promotion unless the candidate backup's
	// durable log prefix is at least this many bytes. Operators pass
	// the deposed primary's last quorum-acked boundary (the
	// QuorumBytes line of a status report), so a reachable-but-lagging
	// backup cannot be promoted over an acknowledged commit that lives
	// only on an unreachable peer. Zero imposes no floor — the forced
	// promotion, and what a bare OpPromote (empty argument) means.
	MinDurable uint64
}

// RepStatus answers OpStatus: the server's replication role and health.
type RepStatus struct {
	// Role is the server's current replication role.
	Role Role
	// Epoch is the server's replication epoch.
	Epoch uint64
	// Durable is the server's own durable log prefix in bytes.
	Durable uint64
	// QuorumBytes is the largest prefix durably acked by a quorum
	// (primaries only; equals Durable elsewhere).
	QuorumBytes uint64
	// Quorum is the configured quorum size, counting the primary
	// itself (primaries only).
	Quorum uint32
	// Replicas is the number of configured backups (primaries only).
	Replicas uint32
	// Alive is how many of those backups answered the most recent
	// round or probe (primaries only).
	Alive uint32
	// IdxHits / IdxMisses are the node's live-version index counters,
	// summed over its guardians (zero with the index disabled).
	IdxHits   uint64
	IdxMisses uint64
	// IdxEntries is the number of indexed versions, IdxBytes their
	// total flattened size.
	IdxEntries uint64
	IdxBytes   uint64
}

const (
	repAckSize       = 17
	repHeartbeatSize = 16
	repSnapshotSize  = 8
	repPromoteSize   = 8
	repStatusSize    = 69
)

// EncodeRepAppend renders a as a request argument.
func EncodeRepAppend(a RepAppend) []byte {
	out := make([]byte, 0, 8+8+4+4+len(a.Frames))
	out = binary.LittleEndian.AppendUint64(out, a.Epoch)
	out = binary.LittleEndian.AppendUint64(out, a.Start)
	out = binary.LittleEndian.AppendUint32(out, a.PrevLen)
	return appendBytes(out, a.Frames)
}

// DecodeRepAppend parses a request argument as a RepAppend.
func DecodeRepAppend(b []byte) (RepAppend, error) {
	c := cursor{what: "rep.append", b: b}
	return decoded(RepAppend{Epoch: c.u64(), Start: c.u64(), PrevLen: c.u32(), Frames: c.bytes()}, &c)
}

// EncodeRepAck renders a as a response result.
func EncodeRepAck(a RepAck) []byte {
	out := make([]byte, 0, repAckSize)
	out = binary.LittleEndian.AppendUint64(out, a.Epoch)
	out = binary.LittleEndian.AppendUint64(out, a.Durable)
	applied := byte(0)
	if a.Applied {
		applied = 1
	}
	return append(out, applied)
}

// DecodeRepAck parses a response result as a RepAck.
func DecodeRepAck(b []byte) (RepAck, error) {
	c := cursor{what: "rep ack", b: b}
	return decoded(RepAck{Epoch: c.u64(), Durable: c.u64(), Applied: c.bool()}, &c)
}

// EncodeRepHeartbeat renders h as a request argument.
func EncodeRepHeartbeat(h RepHeartbeat) []byte {
	out := make([]byte, 0, repHeartbeatSize)
	out = binary.LittleEndian.AppendUint64(out, h.Epoch)
	return binary.LittleEndian.AppendUint64(out, h.Durable)
}

// DecodeRepHeartbeat parses a request argument as a RepHeartbeat.
func DecodeRepHeartbeat(b []byte) (RepHeartbeat, error) {
	c := cursor{what: "rep.heartbeat", b: b}
	return decoded(RepHeartbeat{Epoch: c.u64(), Durable: c.u64()}, &c)
}

// EncodeRepSnapshot renders s as a request argument.
func EncodeRepSnapshot(s RepSnapshot) []byte {
	out := make([]byte, 0, repSnapshotSize)
	return binary.LittleEndian.AppendUint64(out, s.Epoch)
}

// DecodeRepSnapshot parses a request argument as a RepSnapshot.
func DecodeRepSnapshot(b []byte) (RepSnapshot, error) {
	c := cursor{what: "rep.snapshot", b: b}
	return decoded(RepSnapshot{Epoch: c.u64()}, &c)
}

// EncodeRepPromote renders p as a request argument.
func EncodeRepPromote(p RepPromote) []byte {
	out := make([]byte, 0, repPromoteSize)
	return binary.LittleEndian.AppendUint64(out, p.MinDurable)
}

// DecodeRepPromote parses a request argument as a RepPromote. An empty
// argument — what a pre-floor client sends — decodes to the zero
// floor.
func DecodeRepPromote(b []byte) (RepPromote, error) {
	if len(b) == 0 {
		return RepPromote{}, nil
	}
	c := cursor{what: "promote", b: b}
	return decoded(RepPromote{MinDurable: c.u64()}, &c)
}

// EncodeRepStatus renders s as a response result.
func EncodeRepStatus(s RepStatus) []byte {
	out := make([]byte, 0, repStatusSize)
	out = append(out, byte(s.Role))
	out = binary.LittleEndian.AppendUint64(out, s.Epoch)
	out = binary.LittleEndian.AppendUint64(out, s.Durable)
	out = binary.LittleEndian.AppendUint64(out, s.QuorumBytes)
	out = binary.LittleEndian.AppendUint32(out, s.Quorum)
	out = binary.LittleEndian.AppendUint32(out, s.Replicas)
	out = binary.LittleEndian.AppendUint32(out, s.Alive)
	out = binary.LittleEndian.AppendUint64(out, s.IdxHits)
	out = binary.LittleEndian.AppendUint64(out, s.IdxMisses)
	out = binary.LittleEndian.AppendUint64(out, s.IdxEntries)
	return binary.LittleEndian.AppendUint64(out, s.IdxBytes)
}

// DecodeRepStatus parses a response result as a RepStatus.
func DecodeRepStatus(b []byte) (RepStatus, error) {
	c := cursor{what: "status", b: b}
	return decoded(RepStatus{
		Role: c.role(), Epoch: c.u64(), Durable: c.u64(), QuorumBytes: c.u64(),
		Quorum: c.u32(), Replicas: c.u32(), Alive: c.u32(),
		IdxHits: c.u64(), IdxMisses: c.u64(), IdxEntries: c.u64(), IdxBytes: c.u64(),
	}, &c)
}
