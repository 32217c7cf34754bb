package deploy

import (
	"reflect"
	"strings"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/overlay"
	"flexcast/internal/transport"
	"flexcast/internal/wan"
)

func nodes(gs ...amcast.GroupID) []amcast.NodeID {
	out := make([]amcast.NodeID, len(gs))
	for i, g := range gs {
		out[i] = amcast.GroupNode(g)
	}
	return out
}

// TestResolveTopologies pins each protocol's defaults: the group set
// from the overlay or tree, the chain C-DAG and star tree over a bare
// group list, and the entry route they imply.
func TestResolveTopologies(t *testing.T) {
	groups := []amcast.GroupID{1, 2, 3, 4}
	m := amcast.Message{Dst: []amcast.GroupID{3, 4}}
	for _, tt := range []struct {
		name   string
		groups []amcast.GroupID
		ov     *overlay.CDAG
		tree   *overlay.Tree
		want   []amcast.GroupID
		route  []amcast.NodeID
	}{
		// Chain over 1..4: the lca of {3,4} is 3, the lower rank.
		{name: FlexCast, groups: groups, want: groups, route: nodes(3)},
		{name: FlexCast, ov: wan.O1(), want: wan.O1().Groups(), route: nodes(wan.O1().Lca(m.Dst))},
		{name: Skeen, groups: groups, want: groups, route: nodes(3, 4)},
		{name: Skeen, ov: wan.O1(), want: wan.O1().Groups(), route: nodes(3, 4)},
		// Star rooted at 1: every multi-group message enters at the root.
		{name: Hierarchical, groups: groups, want: groups, route: nodes(1)},
		{name: Hierarchical, tree: wan.T1(), want: wan.T1().Groups(), route: nodes(wan.T1().Lca(m.Dst))},
	} {
		p, err := Resolve(tt.name, tt.groups, tt.ov, tt.tree)
		if err != nil {
			t.Fatalf("%s: %v", tt.name, err)
		}
		if !reflect.DeepEqual(p.Groups, tt.want) {
			t.Errorf("%s: groups %v, want %v", tt.name, p.Groups, tt.want)
		}
		if got := p.Route(m); !reflect.DeepEqual(got, tt.route) {
			t.Errorf("%s: route %v, want %v", tt.name, got, tt.route)
		}
		for _, g := range p.Groups {
			eng, err := p.New(g)
			if err != nil || eng.Group() != g {
				t.Fatalf("%s: engine for group %d: %v", tt.name, g, err)
			}
		}
	}
}

func TestResolveRejects(t *testing.T) {
	if _, err := Resolve("paxos", []amcast.GroupID{1}, nil, nil); err == nil {
		t.Error("unknown protocol accepted")
	}
	if _, err := Resolve(FlexCast, nil, nil, wan.T1()); err == nil {
		t.Error("flexcast without overlay or groups accepted")
	}
	if _, err := Resolve(Hierarchical, nil, wan.O1(), nil); err == nil {
		t.Error("hierarchical without tree or groups accepted")
	}
}

// TestNearest orders remote warehouses by WAN distance on the paper's
// 12 regions and by deployment order otherwise.
func TestNearest(t *testing.T) {
	p, err := Resolve(Skeen, wan.Groups(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Nearest(5); !reflect.DeepEqual(got, wan.NearestOrder(5)) {
		t.Errorf("paper scale: %v, want %v", got, wan.NearestOrder(5))
	}
	if p, err = Resolve(Skeen, []amcast.GroupID{4, 2, 9}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := p.Nearest(2), []amcast.GroupID{4, 9}; !reflect.DeepEqual(got, want) {
		t.Errorf("small scale: %v, want %v", got, want)
	}
}

// TestResolveFlags covers the TCP commands' flag grammar, including
// every rejected input.
func TestResolveFlags(t *testing.T) {
	p, err := ResolveFlags(FlexCast, "3, 1,2", "")
	if err != nil {
		t.Fatal(err)
	}
	if want := []amcast.GroupID{1, 2, 3}; !reflect.DeepEqual(p.Groups, want) {
		t.Errorf("flexcast groups %v, want %v", p.Groups, want)
	}
	if p, err = ResolveFlags(Skeen, "3,1,2", ""); err != nil || !reflect.DeepEqual(p.Groups, []amcast.GroupID{3, 1, 2}) {
		t.Errorf("skeen: %v %v", p, err)
	}
	if p, err = ResolveFlags(Hierarchical, "", "8:8=7|5|9,7=6,5=1|2|3|4,9=10|11|12"); err != nil || len(p.Groups) != 12 {
		t.Errorf("hierarchical: %v %v", p, err)
	}
	for _, bad := range []struct{ proto, ov, tree, want string }{
		{"paxos", "1,2", "", "unknown protocol"},
		{FlexCast, "", "", "missing -overlay"},
		{Skeen, "1,x", "", "bad group"},
		{FlexCast, "1,1", "", ""},
		{Hierarchical, "1,2", "", "missing -tree"},
		{Hierarchical, "", "1", "root:edges"},
		{Hierarchical, "", "x:1=2", "bad tree root"},
		{Hierarchical, "", "1:1", "bad tree edge"},
		{Hierarchical, "", "1:x=2", "bad tree parent"},
		{Hierarchical, "", "1:1=y", "bad tree child"},
	} {
		_, err := ResolveFlags(bad.proto, bad.ov, bad.tree)
		if err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("ResolveFlags(%q, %q, %q) = %v, want error %q", bad.proto, bad.ov, bad.tree, err, bad.want)
		}
	}
}

func TestParsePeers(t *testing.T) {
	book, err := ParsePeers("g1=h1:4001,c0=h2:5000")
	if err != nil {
		t.Fatal(err)
	}
	want := transport.AddrBook{amcast.GroupNode(1): "h1:4001", amcast.ClientNode(0): "h2:5000"}
	if !reflect.DeepEqual(book, want) {
		t.Errorf("book %v, want %v", book, want)
	}
	for _, bad := range []string{"", "g1", "x1=h:1", "g=h:1", "gx=h:1"} {
		if _, err := ParsePeers(bad); err == nil {
			t.Errorf("ParsePeers(%q) accepted", bad)
		}
	}
}
