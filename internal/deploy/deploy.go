// Package deploy is where a protocol name becomes running nodes:
// Resolve picks the engine factory, client entry route and snapshot
// decoder; a Stack layers the store executor and the durable backend
// over each engine; Start attaches one runtime node per group to a
// transport and, if any step fails, closes everything it built.
package deploy

import (
	"fmt"
	"path/filepath"
	"time"

	"flexcast/amcast"
	"flexcast/internal/core"
	"flexcast/internal/durable"
	"flexcast/internal/hierarchical"
	"flexcast/internal/overlay"
	"flexcast/internal/runtime"
	"flexcast/internal/skeen"
	"flexcast/internal/store"
	"flexcast/internal/telemetry"
	"flexcast/internal/wan"
)

// Protocol names accepted by Resolve.
const (
	FlexCast     = "flexcast"
	Skeen        = "skeen"
	Hierarchical = "hierarchical"
)

// Protocol is one resolved multicast protocol over a group set.
type Protocol struct {
	// Groups is the group set, in deployment order.
	Groups []amcast.GroupID
	// New builds one group's bare protocol engine.
	New func(g amcast.GroupID) (amcast.SnapshotEngine, error)
	// Route returns the node(s) a client sends a message to: the C-DAG
	// or tree lowest common ancestor, or every destination for Skeen.
	Route func(m amcast.Message) []amcast.NodeID
	// Decode decodes a bare engine's binary snapshot.
	Decode func(data []byte) (amcast.Snapshot, error)
}

// Resolve resolves a protocol name over a group set. groups may be nil:
// it then defaults to the overlay's groups (FlexCast, Skeen) or the
// tree's (Hierarchical). A nil overlay defaults to the chain C-DAG over
// groups in order, a nil tree to the star rooted at groups[0].
func Resolve(name string, groups []amcast.GroupID, ov *overlay.CDAG, tree *overlay.Tree) (*Protocol, error) {
	if name != FlexCast && name != Skeen && name != Hierarchical {
		return nil, fmt.Errorf("deploy: unknown protocol %q (flexcast, skeen, hierarchical)", name)
	}
	switch {
	case groups != nil:
	case name == Hierarchical && tree != nil:
		groups = tree.Groups()
	case name != Hierarchical && ov != nil:
		groups = ov.Groups()
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("deploy: %s needs a group list, or an overlay (a tree for %s)", name, Hierarchical)
	}
	p := &Protocol{Groups: groups}
	var err error
	switch name {
	case FlexCast:
		if ov == nil {
			if ov, err = overlay.NewCDAG(groups); err != nil {
				return nil, err
			}
		}
		p.New = func(g amcast.GroupID) (amcast.SnapshotEngine, error) {
			return core.New(core.Config{Group: g, Overlay: ov})
		}
		p.Route = lcaRoute(ov.Lca)
		p.Decode = core.UnmarshalSnapshot
	case Skeen:
		p.New = func(g amcast.GroupID) (amcast.SnapshotEngine, error) {
			return skeen.New(skeen.Config{Group: g, Groups: groups})
		}
		p.Route = func(m amcast.Message) []amcast.NodeID {
			nodes := make([]amcast.NodeID, len(m.Dst))
			for i, g := range m.Dst {
				nodes[i] = amcast.GroupNode(g)
			}
			return nodes
		}
		p.Decode = skeen.UnmarshalSnapshot
	case Hierarchical:
		if tree == nil {
			star := map[amcast.GroupID][]amcast.GroupID{groups[0]: groups[1:]}
			if tree, err = overlay.NewTree(groups[0], star); err != nil {
				return nil, err
			}
		}
		p.New = func(g amcast.GroupID) (amcast.SnapshotEngine, error) {
			return hierarchical.New(hierarchical.Config{Group: g, Tree: tree})
		}
		p.Route = lcaRoute(tree.Lca)
		p.Decode = hierarchical.UnmarshalSnapshot
	}
	return p, nil
}

// lcaRoute enters every message at its destinations' lowest common
// ancestor in the overlay.
func lcaRoute(lca func([]amcast.GroupID) amcast.GroupID) func(m amcast.Message) []amcast.NodeID {
	return func(m amcast.Message) []amcast.NodeID { return []amcast.NodeID{amcast.GroupNode(lca(m.Dst))} }
}

// Nearest orders the groups other than home for the gTPC-C generator's
// remote-warehouse choice: by WAN distance on the paper's 12 regions,
// by deployment order otherwise.
func (p *Protocol) Nearest(home amcast.GroupID) []amcast.GroupID {
	if len(p.Groups) == wan.NumRegions && int(home) >= 1 && int(home) <= wan.NumRegions {
		return wan.NearestOrder(home)
	}
	var out []amcast.GroupID
	for _, g := range p.Groups {
		if g != home {
			out = append(out, g)
		}
	}
	return out
}

// Execute layers the partitioned gTPC-C store over each group's engine.
type Execute struct {
	// Store is the shard configuration; Warehouse is set per group.
	Store store.Config
	// Mirror runs each shard's mirror replica (the determinism audit).
	Mirror bool
	// Followers attaches that many asynchronous follower read replicas
	// to every executor, leased for LeaseTerm.
	Followers int
	LeaseTerm time.Duration
	// Tracer is wired into every executor (nil: tracing off).
	Tracer *telemetry.Tracer
}

// Durable puts each group's outermost engine behind the durable WAL
// and snapshot backend, persisting into GroupDir(Dir, g).
type Durable struct {
	Dir string
	// SnapshotEvery, FsyncEvery and KeepEpochs pass through to
	// durable.Options.
	SnapshotEvery int
	FsyncEvery    int
	KeepEpochs    bool
	// Decode overrides the stack's snapshot decoder (Stack.Decoder).
	Decode func(g amcast.GroupID, data []byte) (amcast.Snapshot, error)
}

// GroupDir is group g's persistence directory under root.
func GroupDir(root string, g amcast.GroupID) string {
	return filepath.Join(root, fmt.Sprintf("group-%d", g))
}

// Stack is the per-group engine composition, innermost first: the
// protocol engine, the optional Wrap hook, the store executor and the
// durable backend.
type Stack struct {
	Proto *Protocol
	// Wrap, when non-nil, wraps each protocol engine before the other
	// layers (the public ClusterConfig.WrapEngine hook).
	Wrap    func(g amcast.GroupID, eng amcast.Engine) (amcast.Engine, error)
	Execute *Execute
	Durable *Durable
}

// Decoder returns the snapshot decoder of the engine the durable layer
// wraps: the store encoding over the protocol's when executing.
func (s *Stack) Decoder() func(data []byte) (amcast.Snapshot, error) {
	proto := s.Proto.Decode
	if s.Execute == nil {
		return proto
	}
	return func(data []byte) (amcast.Snapshot, error) {
		return store.UnmarshalSnapshot(data, proto)
	}
}

// Group is one group's assembled stack.
type Group struct {
	ID amcast.GroupID
	// Engine is the outermost layer, the one the runtime node runs.
	Engine amcast.Engine
	// Exec and Followers are set with Stack.Execute, Durable with
	// Stack.Durable.
	Exec      *store.Executor
	Followers []*store.Replica
	Durable   *durable.Engine
	// Node and stop are set by Start: the group's runtime node and its
	// transport endpoint's shutdown (nil on the in-memory transport).
	Node *runtime.Node
	stop func()
}

// Build assembles group g's stack. On failure it closes whatever it
// built; the caller owns a returned group and closes it with Close.
func (s *Stack) Build(g amcast.GroupID) (grp *Group, err error) {
	grp = &Group{ID: g}
	defer func() {
		if err != nil {
			grp.Close()
			grp = nil
		}
	}()
	proto, err := s.Proto.New(g)
	if err != nil {
		return grp, err
	}
	eng := amcast.Engine(proto)
	if s.Wrap != nil {
		if eng, err = s.Wrap(g, eng); err != nil {
			return grp, err
		}
	}
	if x := s.Execute; x != nil {
		cfg := x.Store
		cfg.Warehouse = g
		if grp.Exec, err = store.Wrap(eng, cfg, x.Mirror); err != nil {
			return grp, err
		}
		for i := 1; i <= x.Followers; i++ {
			rep, err := grp.Exec.AttachFollower(store.ReplicaConfig{
				Idx:           int32(i),
				Async:         true, // Clock defaults to the wall clock
				AutoGrantTerm: uint64(x.LeaseTerm.Microseconds()),
			})
			if err != nil {
				return grp, err
			}
			grp.Followers = append(grp.Followers, rep)
		}
		grp.Exec.SetTracer(x.Tracer)
		eng = grp.Exec
	}
	if d := s.Durable; d != nil {
		// The durable layer wraps the fully composed engine (execution
		// included), so its WAL records the exact inputs of the state
		// its snapshots capture.
		se, ok := eng.(amcast.SnapshotEngine)
		if !ok {
			return grp, fmt.Errorf("deploy: durable backend requires a snapshot-capable engine, got %T", eng)
		}
		decode := s.Decoder()
		if d.Decode != nil {
			decode = func(data []byte) (amcast.Snapshot, error) { return d.Decode(g, data) }
		}
		grp.Durable, err = durable.Wrap(se, durable.Options{
			Dir:           GroupDir(d.Dir, g),
			SnapshotEvery: d.SnapshotEvery,
			FsyncEvery:    d.FsyncEvery,
			KeepEpochs:    d.KeepEpochs,
			Decode:        decode,
		})
		if err != nil {
			return grp, err
		}
		eng = grp.Durable
	}
	grp.Engine = eng
	return grp, nil
}

// Close stops the group's runtime node (which closes the durable
// engine inside), or else the durable engine itself, then the follower
// replicas the node feeds. Start's transport endpoint is the
// Deployment's to close.
func (g *Group) Close() {
	if g.Node != nil {
		g.Node.Close()
	} else if g.Durable != nil {
		g.Durable.Close()
	}
	for _, rep := range g.Followers {
		rep.Close()
	}
}

// Deployment is a set of running groups.
type Deployment struct {
	// Groups holds the running groups in deployment order; Nodes their
	// runtime nodes in the same order.
	Groups []*Group
	Nodes  []*runtime.Node
	byID   map[amcast.GroupID]*Group
}

// Attach connects one group's engine to a transport: it builds the
// group's runtime node under rc and starts serving its inbound traffic.
// stop, when non-nil, shuts the group's transport endpoint down. On
// error Attach leaves nothing running.
type Attach func(eng amcast.Engine, rc runtime.Config) (node *runtime.Node, stop func(), err error)

// Start builds and attaches every group of groups (nil: all of the
// stack's protocol groups), configuring each node with rc. On failure
// it closes every group it built and returns the error.
func Start(s *Stack, groups []amcast.GroupID, attach Attach, rc func(*Group) runtime.Config) (*Deployment, error) {
	if groups == nil {
		groups = s.Proto.Groups
	}
	d := &Deployment{byID: make(map[amcast.GroupID]*Group, len(groups))}
	for _, g := range groups {
		grp, err := s.Build(g)
		if err != nil {
			d.Close()
			return nil, fmt.Errorf("deploy: group %d: %w", g, err)
		}
		if grp.Node, grp.stop, err = attach(grp.Engine, rc(grp)); err != nil {
			grp.Close()
			d.Close()
			return nil, fmt.Errorf("deploy: attach group %d: %w", g, err)
		}
		d.Groups = append(d.Groups, grp)
		d.Nodes = append(d.Nodes, grp.Node)
		d.byID[g] = grp
	}
	return d, nil
}

// Group returns group g (nil if the deployment does not run it).
func (d *Deployment) Group(g amcast.GroupID) *Group { return d.byID[g] }

// Close stops every group, shutting all transport endpoints down first
// so that no node still sends to a peer that is gone.
func (d *Deployment) Close() {
	for _, g := range d.Groups {
		if g.stop != nil {
			g.stop()
		}
	}
	for _, g := range d.Groups {
		g.Close()
	}
}
