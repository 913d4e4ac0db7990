package exp

import (
	"fmt"

	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/prng"
)

// E11DynamicNetworks extends E10's between-attempt churn to churn *during*
// delivery: the dynamic subsystem advances the topology every few hops
// while the walk is in flight, recompiling the degree reduction and
// carrying the stateless header across snapshots. Three scenario families
// are swept — Markov link flapping, random-waypoint mobility, and the
// adversarial next-link cutter — and every verdict is audited:
//
//   - success is sound by construction (each hop rode a then-existing
//     edge, so reaching the destination is a physical delivery);
//   - failure must agree with the BFS oracle on the decision-time
//     topology (the §4 closure check makes it definitive);
//   - on the adversary's 2-edge-connected underlay the pair stays
//     connected at every epoch, so delivery is mandatory.
//
// Like E10, this extends the paper rather than reproducing it: it
// measures how much of the guarantee survives when the §1.1 static
// assumption is relaxed at hop granularity.
func E11DynamicNetworks(o Options) (*Table, error) {
	t := &Table{
		ID:     "E11",
		Title:  "Extension: routing while the topology changes mid-walk",
		Anchor: "§1.1 static assumption relaxed at hop granularity; resumption via the stateless header",
		Columns: []string{"scenario", "routes", "delivered", "definitive failures",
			"wrong verdicts", "epochs", "resumptions"},
	}
	reps := o.reps(20, 6)

	type scenario struct {
		name  string
		base  *graph.Graph
		pos   bool
		sched func(rep int) dynamic.Schedule
	}
	geo := gen.UDG2D(30, 0.35, o.Seed)
	scenarios := []scenario{
		{
			name: "markov link flapping (torus underlay)",
			base: gen.Torus(5, 5),
			sched: func(rep int) dynamic.Schedule {
				return &dynamic.MarkovLinks{Seed: o.Seed + uint64(rep)*13, PDown: 0.06, PUp: 0.5}
			},
		},
		{
			name: "random-waypoint mobility (udg2d)",
			base: geo.G,
			pos:  true,
			sched: func(rep int) dynamic.Schedule {
				return &dynamic.RandomWaypoint{
					Seed: o.Seed + uint64(rep), SpeedMin: 0.01, SpeedMax: 0.04, Radius: 0.35,
				}
			},
		},
		{
			name:  "adversarial next-link cutter (2-edge-connected)",
			base:  gen.Torus(4, 4),
			sched: func(int) dynamic.Schedule { return &dynamic.LinkCutter{} },
		},
	}

	for si, sc := range scenarios {
		src := prng.New(o.Seed ^ uint64(si)<<4)
		nodes := sc.base.Nodes()
		delivered, failures, wrong, epochs, resumptions := 0, 0, 0, 0, 0
		for rep := 0; rep < reps; rep++ {
			s := nodes[src.Intn(len(nodes))]
			d := nodes[src.Intn(len(nodes))]
			if s == d {
				d = nodes[(src.Intn(len(nodes)-1)+1+int(s))%len(nodes)]
			}
			w := dynamic.NewWorld(sc.base, sc.sched(rep))
			if sc.pos {
				w.SetPositions(geo.Pos)
			}
			res, err := dynamic.NewRouter(w, dynamic.Config{
				Seed: o.Seed + uint64(rep), HopsPerEpoch: 24,
			}, nil).Route(s, d)
			if err != nil {
				return nil, fmt.Errorf("E11 %s rep %d: %w", sc.name, rep, err)
			}
			epochs += res.Epochs
			resumptions += res.Resumptions
			switch res.Status {
			case netsim.StatusSuccess:
				delivered++
			case netsim.StatusFailure:
				failures++
				if _, reachable := w.Graph().BFSDist(s)[d]; reachable {
					wrong++
				}
			}
		}
		t.AddRow(sc.name, fmtInt(reps), fmtInt(delivered), fmtInt(failures),
			fmtInt(wrong), fmtInt(epochs), fmtInt(resumptions))
		if wrong > 0 {
			return nil, fmt.Errorf("E11: %d wrong verdicts in %q", wrong, sc.name)
		}
		if si == 2 && delivered != reps {
			return nil, fmt.Errorf("E11: adversary defeated delivery on an always-connected underlay (%d/%d)",
				delivered, reps)
		}
	}
	t.AddNote("Success verdicts are sound by construction; failure verdicts pass the §4 closure check on the decision-time topology and match its BFS oracle.")
	t.AddNote("The adversarial row must deliver 100%%: one cut link at a time cannot disconnect a 2-edge-connected underlay.")
	return t, nil
}
