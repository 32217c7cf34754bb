package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"os"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/core"
	"flexcast/internal/overlay"
)

// goldenPath holds the snapshot bytes and delivery digests of goldenRun,
// recorded with the map-based history that the slot-based one replaced.
// The history's AppendBinary output is part of every snapshot, so the
// fixture pins the history encoding, the engine's behaviour and the
// decoding of snapshots written by that implementation.
const goldenPath = "testdata/golden_run.json"

type goldenGroup struct {
	Group amcast.GroupID `json:"group"`
	// MidSnapshot and FinalSnapshot are hex MarshalBinary snapshots
	// taken when half the messages were multicast and at quiescence.
	MidSnapshot   string `json:"mid_snapshot"`
	FinalSnapshot string `json:"final_snapshot"`
	// MidDelivered deliveries happened before the mid snapshot; Digest is
	// sha256 over the ids of all deliveries in order.
	MidDelivered int    `json:"mid_delivered"`
	Digest       string `json:"delivery_digest"`
}

type goldenFixture struct {
	Seed   int64         `json:"seed"`
	Groups []goldenGroup `json:"groups"`
}

// goldenTrace is one group's side of a goldenRun: the snapshots as
// bytes, its deliveries, and the inputs it consumed after the mid
// snapshot.
type goldenTrace struct {
	mid, final []byte
	delivered  []amcast.MsgID
	midDlv     int
	afterMid   []amcast.Envelope
	pruned     int
}

const goldenSeed = 20230612

var goldenGroups = []amcast.GroupID{1, 2, 3, 4, 5}

func goldenEngine(t *testing.T, ov *overlay.CDAG, g amcast.GroupID) *core.Engine {
	t.Helper()
	return core.MustNew(core.Config{Group: g, Overlay: ov})
}

func marshal(t *testing.T, eng *core.Engine) []byte {
	t.Helper()
	data, err := eng.Snapshot().(amcast.BinarySnapshot).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// goldenRun multicasts 3 clients × 24 messages to random destination
// sets over 5 FlexCast groups, every 6th one a flush to all groups, and
// delivers in-flight envelopes in a seeded random order that keeps
// per-link FIFO. It runs to quiescence.
func goldenRun(t *testing.T, ov *overlay.CDAG) map[amcast.GroupID]*goldenTrace {
	t.Helper()
	rng := rand.New(rand.NewSource(goldenSeed))
	type link struct{ from, to amcast.NodeID }
	engines := make(map[amcast.GroupID]*core.Engine)
	traces := make(map[amcast.GroupID]*goldenTrace)
	for _, g := range goldenGroups {
		engines[g] = goldenEngine(t, ov, g)
		traces[g] = &goldenTrace{}
	}
	var msgs []amcast.Message
	for i := 0; i < 24; i++ {
		for c := 0; c < 3; c++ {
			m := amcast.Message{
				ID:      amcast.NewMsgID(c, uint64(i+1)),
				Sender:  amcast.ClientNode(c),
				Payload: []byte{byte(c), byte(i)},
			}
			if (i*3+c)%6 == 5 {
				m.Flags = amcast.FlagFlush
				m.Dst = append([]amcast.GroupID(nil), goldenGroups...)
			} else {
				for _, p := range rng.Perm(len(goldenGroups))[:1+rng.Intn(3)] {
					m.Dst = append(m.Dst, goldenGroups[p])
				}
				m.Dst = amcast.NormalizeDst(m.Dst)
			}
			msgs = append(msgs, m)
		}
	}
	flight := make(map[link][]amcast.Envelope)
	var links []link // every link that ever carried traffic, in first-use order
	mid := false
	feed := func(g amcast.GroupID, env amcast.Envelope) {
		tr := traces[g]
		if mid {
			tr.afterMid = append(tr.afterMid, env)
		}
		for _, out := range engines[g].OnEnvelope(env) {
			if out.To.IsClient() {
				continue
			}
			l := link{from: amcast.GroupNode(g), to: out.To}
			if _, ok := flight[l]; !ok {
				links = append(links, l)
			}
			flight[l] = append(flight[l], out.Env)
		}
		for _, d := range engines[g].TakeDeliveries() {
			tr.delivered = append(tr.delivered, d.Msg.ID)
		}
	}
	next := 0
	for {
		var busy []link
		for _, l := range links {
			if len(flight[l]) > 0 {
				busy = append(busy, l)
			}
		}
		if next == len(msgs) && len(busy) == 0 {
			break
		}
		if next < len(msgs) && (len(busy) == 0 || rng.Intn(4) == 0) {
			m := msgs[next]
			next++
			feed(ov.Lca(m.Dst), amcast.Envelope{Kind: amcast.KindRequest, From: m.Sender, Msg: m})
			if next == len(msgs)/2 {
				for _, g := range goldenGroups {
					traces[g].mid = marshal(t, engines[g])
					traces[g].midDlv = len(traces[g].delivered)
				}
				mid = true
			}
			continue
		}
		l := busy[rng.Intn(len(busy))]
		env := flight[l][0]
		flight[l] = flight[l][1:]
		feed(l.to.Group(), env)
	}
	for _, g := range goldenGroups {
		traces[g].final = marshal(t, engines[g])
		traces[g].pruned = engines[g].PrunedNodes()
	}
	return traces
}

func digest(ids []amcast.MsgID) string {
	h := sha256.New()
	for _, id := range ids {
		h.Write(binary.AppendUvarint(nil, uint64(id)))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func goldenOverlay(t *testing.T) *overlay.CDAG {
	t.Helper()
	ov, err := overlay.NewCDAG(goldenGroups)
	if err != nil {
		t.Fatal(err)
	}
	return ov
}

func loadGolden(t *testing.T) goldenFixture {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var f goldenFixture
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.Seed != goldenSeed || len(f.Groups) != len(goldenGroups) {
		t.Fatalf("fixture seed %d with %d groups, want %d with %d", f.Seed, len(f.Groups), goldenSeed, len(goldenGroups))
	}
	return f
}

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenRunMatchesFixture re-runs the seeded workload: every group's
// snapshots must be byte-identical to the recorded ones and its delivery
// sequence must hash to the recorded digest.
func TestGoldenRunMatchesFixture(t *testing.T) {
	f := loadGolden(t)
	traces := goldenRun(t, goldenOverlay(t))
	got := goldenRecord(traces)
	for i, want := range f.Groups {
		g := got.Groups[i]
		if g.MidSnapshot != want.MidSnapshot {
			t.Errorf("group %d: mid snapshot differs from the fixture", want.Group)
		}
		if g.FinalSnapshot != want.FinalSnapshot {
			t.Errorf("group %d: final snapshot differs from the fixture", want.Group)
		}
		if g.MidDelivered != want.MidDelivered || g.Digest != want.Digest {
			t.Errorf("group %d: deliveries differ from the fixture", want.Group)
		}
		// The run must exercise flush garbage collection, or the fixture
		// would not pin pruned log entries and compaction.
		if traces[want.Group].pruned == 0 {
			t.Errorf("group %d pruned nothing", want.Group)
		}
	}
}

// TestGoldenSnapshotsDecodeAndReplay decodes the recorded snapshots:
// each must re-encode to the same bytes, and an engine restored from the
// mid snapshot must, fed the run's later inputs, deliver the recorded
// sequence and end in the recorded final state.
func TestGoldenSnapshotsDecodeAndReplay(t *testing.T) {
	f := loadGolden(t)
	ov := goldenOverlay(t)
	traces := goldenRun(t, ov)
	for _, gg := range f.Groups {
		for _, s := range []string{gg.MidSnapshot, gg.FinalSnapshot} {
			data := unhex(t, s)
			snap, err := core.UnmarshalSnapshot(data)
			if err != nil {
				t.Fatalf("group %d: decode: %v", gg.Group, err)
			}
			again, err := snap.(amcast.BinarySnapshot).MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, data) {
				t.Fatalf("group %d: decoded snapshot re-encodes differently", gg.Group)
			}
		}
		snap, _ := core.UnmarshalSnapshot(unhex(t, gg.MidSnapshot))
		eng := goldenEngine(t, ov, gg.Group)
		if err := eng.Restore(snap); err != nil {
			t.Fatalf("group %d: restore: %v", gg.Group, err)
		}
		tr := traces[gg.Group]
		delivered := append([]amcast.MsgID(nil), tr.delivered[:gg.MidDelivered]...)
		for _, env := range tr.afterMid {
			eng.OnEnvelope(env)
			for _, d := range eng.TakeDeliveries() {
				delivered = append(delivered, d.Msg.ID)
			}
		}
		if digest(delivered) != gg.Digest {
			t.Errorf("group %d: replay from the mid snapshot delivered a different sequence", gg.Group)
		}
		if !bytes.Equal(marshal(t, eng), unhex(t, gg.FinalSnapshot)) {
			t.Errorf("group %d: replay from the mid snapshot ended in a different state", gg.Group)
		}
	}
}

// goldenRecord puts goldenRun's results in the fixture format; the
// fixture file is this, indented JSON, from the recording commit.
func goldenRecord(traces map[amcast.GroupID]*goldenTrace) goldenFixture {
	f := goldenFixture{Seed: goldenSeed}
	for _, g := range goldenGroups {
		tr := traces[g]
		f.Groups = append(f.Groups, goldenGroup{
			Group:         g,
			MidSnapshot:   hex.EncodeToString(tr.mid),
			FinalSnapshot: hex.EncodeToString(tr.final),
			MidDelivered:  tr.midDlv,
			Digest:        digest(tr.delivered),
		})
	}
	return f
}
