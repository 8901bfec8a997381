// Shard registry: one rosd process hosting several guardians, each
// owning a slice of the keyspace. Requests carry a shard id in the
// header; the server dispatches them to the owning guardian, refuses
// the ones it does not host (StatusWrongShard, with its routing table
// in-band so the caller learns the owner for free), and serves the
// table itself over OpRoute/OpRouteInstall.
//
// A shard moves between nodes by an explicit operator handoff
// (OpHandoff): drain the guardian, compact its log to live state via
// housekeeping (§5.2 — the snapshot is what makes the shipped log
// small), ship it to the receiver through the replication receiver's
// append path (same validation, same refusal semantics), then publish
// a rehomed routing table whose bumped version retires the old route
// everywhere it propagates. Rebalancing policy — when to move what —
// stays outside the server.
package server

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/guardian"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/replog"
	"repro/internal/shard"
	"repro/internal/transport"
	"repro/internal/wire"
)

// handoffChunk bounds one shipped frame run; a shard's compacted log
// crosses the wire in runs well under wire.MaxPayload.
const handoffChunk = 256 << 10

// errShardZero refuses an inbound handoff naming shard 0.
var errShardZero = errors.New("server: handoff of shard 0, the default guardian's registry entry")

// AddShard registers g as the guardian owning shard id. Requests whose
// header names id dispatch to g from the next request on.
func (s *Server) AddShard(id uint32, g *guardian.Guardian) {
	s.smu.Lock()
	s.shards[id] = g
	s.smu.Unlock()
}

// removeShard unregisters a shard (the outbound handoff's first step);
// requests for it answer StatusWrongShard until a new table points at
// the receiver.
func (s *Server) removeShard(id uint32) *guardian.Guardian {
	s.smu.Lock()
	g := s.shards[id]
	delete(s.shards, id)
	s.smu.Unlock()
	return g
}

// Shard returns the guardian hosting shard id, if any.
func (s *Server) Shard(id uint32) (*guardian.Guardian, bool) {
	s.smu.Lock()
	g, ok := s.shards[id]
	s.smu.Unlock()
	return g, ok
}

// InstallTable installs t as the server's routing table when strictly
// newer than the current one. An equal version is a no-op; an older
// one is refused wrapping transport.ErrStaleRoute, so a delayed table
// from before a handoff can never resurrect a superseded route.
func (s *Server) InstallTable(t shard.Table) error {
	if err := t.Validate(); err != nil {
		return err
	}
	s.smu.Lock()
	if cur := s.table; cur != nil {
		if t.Version < cur.Version {
			have := cur.Version
			s.smu.Unlock()
			return fmt.Errorf("server: table v%d offered, v%d installed: %w", t.Version, have, transport.ErrStaleRoute)
		}
		if t.Version == cur.Version {
			s.smu.Unlock()
			return nil
		}
	}
	s.table = &t
	s.smu.Unlock()
	s.emit(obs.Event{Kind: obs.KindShardInstall, Durable: t.Version, Bytes: len(t.Shards)})
	return nil
}

// Table returns the server's current routing table.
func (s *Server) Table() (shard.Table, bool) {
	s.smu.Lock()
	defer s.smu.Unlock()
	if s.table == nil {
		return shard.Table{}, false
	}
	return *s.table, true
}

// resolve maps a request's shard id to its guardian with one registry
// lookup; id 0 is the default guardian. A miss on 0 while a backup is
// hosted answers StatusRetry — a backup serves nothing until promoted,
// and the client's retry loop rides out the failover window. Any other
// miss yields the StatusWrongShard refusal, carrying the current table
// so the caller can re-route without a second round trip.
func (s *Server) resolve(id uint32) (*guardian.Guardian, *wire.Response) {
	s.smu.Lock()
	g, ok := s.shards[id]
	tbl := s.table
	s.smu.Unlock()
	if ok {
		return g, nil
	}
	if id == 0 && s.cfg.Backup != nil {
		return nil, &wire.Response{Status: wire.StatusRetry, Err: "backup not promoted"}
	}
	resp := wire.Response{Status: wire.StatusWrongShard, Err: fmt.Sprintf("shard %d not hosted here", id)}
	var version uint64
	if tbl != nil {
		resp.Result = tbl.Encode()
		version = tbl.Version
	}
	s.emit(obs.Event{Kind: obs.KindShardWrong, From: uint64(id), Durable: version})
	return nil, &resp
}

// route answers OpRoute with the current table.
func (s *Server) route() wire.Response {
	tbl, ok := s.Table()
	if !ok {
		return wire.Response{Status: wire.StatusBadRequest, Err: "not sharded"}
	}
	s.emit(obs.Event{Kind: obs.KindShardRoute, Durable: tbl.Version})
	return wire.Response{Status: wire.StatusOK, Result: tbl.Encode()}
}

// routeInstall answers OpRouteInstall: install the offered table when
// newer, and answer the current table either way — a stale offer is
// not an error to the caller, it just teaches them the newer table.
func (s *Server) routeInstall(req wire.Request) wire.Response {
	offered, err := shard.Decode(req.Arg)
	if err != nil {
		return wire.Response{Status: wire.StatusBadRequest, Err: err.Error()}
	}
	if _, sharded := s.Table(); !sharded {
		return wire.Response{Status: wire.StatusBadRequest, Err: "not sharded"}
	}
	//roslint:besteffort a stale offer is answered with the newer installed table, not an error
	_ = s.InstallTable(offered)
	tbl, _ := s.Table()
	return wire.Response{Status: wire.StatusOK, Result: tbl.Encode()}
}

// statusReport builds the OpStatus answer: the node-level replication
// report plus one row per hosted shard, in ascending id order. The
// node-level idx.* counters aggregate every registered guardian; each
// shard row carries its own guardian's. The default guardian (entry 0)
// is the node itself and gets no row.
func (s *Server) statusReport() wire.StatusReport {
	rep := wire.StatusReport{Rep: s.status()}
	s.smu.Lock()
	ids := make([]uint32, 0, len(s.shards))
	for id := range s.shards { // draining for membership; sorted below
		ids = append(ids, id)
	}
	guardians := make([]*guardian.Guardian, 0, len(ids))
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		guardians = append(guardians, s.shards[id])
	}
	s.smu.Unlock()
	// Durable boundaries and index counters are read outside smu:
	// TailInfo takes log locks, and smu stays a leaf.
	for i, id := range ids {
		st, indexed := guardians[i].IndexStats()
		if indexed {
			rep.Rep.IdxHits += st.Hits
			rep.Rep.IdxMisses += st.Misses
			rep.Rep.IdxEntries += uint64(st.Entries)
			rep.Rep.IdxBytes += uint64(st.Bytes)
		}
		if id == 0 {
			continue
		}
		row := wire.ShardStatus{ID: id, Role: wire.RoleStandalone}
		if site := guardians[i].Site(); site != nil {
			row.Durable, _ = site.Log().TailInfo()
		}
		if indexed {
			row.IdxHits = st.Hits
			row.IdxMisses = st.Misses
		}
		rep.Shards = append(rep.Shards, row)
	}
	return rep
}

// handoff answers OpHandoff: move one hosted shard to the target node.
// The shard is unregistered first — its requests answer
// StatusWrongShard for the duration, and routed clients ride that out
// with their retry budget — then drained, compacted, shipped, and
// finally published out of this node by a version-bumped table. Any
// failure before the publish re-registers the guardian: the handoff
// never leaves the shard unhosted.
func (s *Server) handoff(req wire.Request) wire.Response {
	h, err := wire.DecodeHandoffReq(req.Arg)
	if err != nil {
		return wire.Response{Status: wire.StatusBadRequest, Err: err.Error()}
	}
	if s.cfg.HandoffShip == nil {
		return wire.Response{Status: wire.StatusBadRequest, Err: "handoff not configured"}
	}
	tbl, sharded := s.Table()
	if !sharded {
		return wire.Response{Status: wire.StatusBadRequest, Err: "not sharded"}
	}
	if h.Target == "" {
		return wire.Response{Status: wire.StatusBadRequest, Err: "handoff without a target"}
	}
	newTable, err := tbl.WithAddr(shard.ID(h.Shard), h.Target)
	if err != nil {
		return wire.Response{Status: wire.StatusBadRequest, Err: err.Error()}
	}
	g := s.removeShard(h.Shard)
	if g == nil {
		if _, e := s.resolve(h.Shard); e != nil {
			return *e
		}
		return wire.Response{Status: wire.StatusBadRequest, Err: fmt.Sprintf("shard %d not hosted here", h.Shard)}
	}
	// Drain: in-flight actions finish or the handoff yields. Bounded —
	// a wedged action must not hold the operator's call forever.
	drained := false
	for i := 0; i < 100; i++ {
		if len(g.LiveActions()) == 0 {
			drained = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !drained {
		s.AddShard(h.Shard, g)
		return wire.Response{Status: wire.StatusRetry, Err: fmt.Sprintf("shard %d has live actions", h.Shard)}
	}
	// Compact to live state so the shipped log is a snapshot, not the
	// full history. Simplelog backends cannot housekeep; their whole
	// log ships instead.
	// Best-effort: compaction shrinks the shipped bytes, but an
	// uncompacted handoff is still correct.
	_, _ = g.Housekeep(core.HousekeepSnapshot)
	site := g.Site()
	if site == nil {
		s.AddShard(h.Shard, g)
		return wire.Response{Status: wire.StatusError, Err: fmt.Sprintf("shard %d has no open site", h.Shard)}
	}
	lg := site.Log()
	durable, _ := lg.TailInfo()
	s.emit(obs.Event{Kind: obs.KindShardHandoff, From: uint64(h.Shard), Bytes: int(durable), Note: "begin"})
	base := wire.HandoffFrames{Shard: h.Shard, Backend: uint8(g.Backend()), BlockSize: uint32(g.VolumeBlockSize())}
	var cursor uint64
	for cursor < durable {
		frames, prevLen, err := lg.ReadRaw(cursor, handoffChunk)
		if err != nil {
			s.AddShard(h.Shard, g)
			return wire.Response{Status: wire.StatusError, Err: fmt.Sprintf("handoff read at %d: %v", cursor, err)}
		}
		hf := base
		hf.App = wire.RepAppend{Epoch: 1, Start: cursor, PrevLen: prevLen, Frames: frames}
		ack, err := s.cfg.HandoffShip(h.Target, hf)
		if err != nil {
			s.AddShard(h.Shard, g)
			return wire.Response{Status: wire.StatusError, Err: fmt.Sprintf("handoff ship at %d: %v", cursor, err)}
		}
		want := cursor + uint64(len(frames))
		// A refused duplicate (a resend after a lost ack) still acks
		// the already-advanced tail; anything short means the receiver
		// holds a different log and the handoff must not publish.
		if ack.Durable != want {
			s.AddShard(h.Shard, g)
			return wire.Response{Status: wire.StatusError, Err: fmt.Sprintf("handoff receiver at %d, want %d", ack.Durable, want)}
		}
		cursor = want
	}
	done := base
	done.Done = true
	done.App = wire.RepAppend{Epoch: 1, Start: cursor}
	done.Table = newTable.Encode()
	if _, err := s.cfg.HandoffShip(h.Target, done); err != nil {
		s.AddShard(h.Shard, g)
		return wire.Response{Status: wire.StatusError, Err: fmt.Sprintf("handoff adopt: %v", err)}
	}
	// The receiver serves the shard now; publish the rehomed table
	// locally so this node's refusals teach the new route. The moved
	// guardian is dropped — its volume stays intact, but nothing
	// routes to it again under the new version.
	if err := s.InstallTable(newTable); err != nil {
		return wire.Response{Status: wire.StatusError, Err: err.Error()}
	}
	s.emit(obs.Event{Kind: obs.KindShardHandoff, From: uint64(h.Shard), Durable: newTable.Version, Note: "publish"})
	return wire.Response{Status: wire.StatusOK, Result: newTable.Encode()}
}

// handoffInstall answers OpHandoffInstall on the receiving node.
func (s *Server) handoffInstall(req wire.Request) wire.Response {
	hf, err := wire.DecodeHandoffFrames(req.Arg)
	if err != nil {
		return wire.Response{Status: wire.StatusBadRequest, Err: err.Error()}
	}
	ack, err := s.ApplyHandoff(hf)
	if errors.Is(err, errShardZero) {
		return wire.Response{Status: wire.StatusBadRequest, Err: err.Error()}
	}
	if err != nil {
		return wire.Response{Status: wire.StatusError, Err: err.Error()}
	}
	return wire.Response{Status: wire.StatusOK, Result: wire.EncodeRepAck(ack)}
}

// ApplyHandoff applies one inbound handoff step: frame runs accumulate
// in a replication receiver keyed by shard (same validation and
// refusal semantics as backup replication), and the Done step recovers
// the guardian over the received prefix, registers it, and installs
// the shipped table. Idempotent: a resent run is refused with the
// already-advanced tail acked, and a resent Done re-acks an adopted
// shard. Shard 0 is refused before any receiver exists: registry entry
// 0 is the default guardian, and no routing table names it.
func (s *Server) ApplyHandoff(hf wire.HandoffFrames) (wire.RepAck, error) {
	if hf.Shard == 0 {
		return wire.RepAck{}, errShardZero
	}
	s.smu.Lock()
	if g, adopted := s.shards[hf.Shard]; adopted {
		s.smu.Unlock()
		if !hf.Done {
			return wire.RepAck{}, fmt.Errorf("server: shard %d already adopted", hf.Shard)
		}
		var durable uint64
		if site := g.Site(); site != nil {
			durable, _ = site.Log().TailInfo()
		}
		return wire.RepAck{Epoch: hf.App.Epoch, Durable: durable, Applied: true}, nil
	}
	b := s.handoffs[hf.Shard]
	if b == nil {
		nb, err := replog.NewBackup(replog.BackupConfig{
			ID:        ids.GuardianID(hf.Shard),
			Primary:   ids.GuardianID(hf.Shard),
			Backend:   core.Backend(hf.Backend),
			BlockSize: int(hf.BlockSize),
			Tracer:    s.cfg.Tracer,
		})
		if err != nil {
			s.smu.Unlock()
			return wire.RepAck{}, err
		}
		b = nb
		s.handoffs[hf.Shard] = b
	}
	s.smu.Unlock()
	if !hf.Done {
		return b.Append(hf.App)
	}
	g, err := b.Promote()
	if err != nil {
		return wire.RepAck{}, fmt.Errorf("server: adopt shard %d: %w", hf.Shard, err)
	}
	if s.cfg.OnAdopt != nil {
		s.cfg.OnAdopt(hf.Shard, g)
	}
	s.AddShard(hf.Shard, g)
	s.smu.Lock()
	delete(s.handoffs, hf.Shard)
	s.smu.Unlock()
	if len(hf.Table) > 0 {
		tbl, err := shard.Decode(hf.Table)
		if err != nil {
			return wire.RepAck{}, fmt.Errorf("server: handoff table: %w", err)
		}
		if err := s.InstallTable(tbl); err != nil {
			return wire.RepAck{}, err
		}
	}
	var durable uint64
	if site := g.Site(); site != nil {
		durable, _ = site.Log().TailInfo()
	}
	s.emit(obs.Event{Kind: obs.KindShardHandoff, From: uint64(hf.Shard), Durable: durable, Note: "adopt"})
	return wire.RepAck{Epoch: hf.App.Epoch, Durable: durable, Applied: true}, nil
}
