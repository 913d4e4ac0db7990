package main

import "time"

// endpointOf is the daemon's metrics label for a job's requests.
func endpointOf(k jobKind) string {
	switch k {
	case bootRoute:
		return "POST /v1/route"
	case netRoute, netBudget:
		return "POST /v1/networks/{id}/route"
	case netBatch:
		return "POST /v1/networks/{id}/batch"
	case worldRoute:
		return "POST /v1/worlds/{id}/route"
	default:
		return "POST /v1/worlds/{id}/advance"
	}
}

const httpSeconds = "adhoc_http_request_seconds"

// perLayer derives the served layers from the daemon's own /metrics and
// /proc diffs over each phase, then runs the in-process layer harness.
func (b *bench) perLayer(ph *phases, openJobs []*job, budgets []int64, alongside map[string]metric) (map[string]metric, error) {
	dp := ph.dp
	var reads, writes []string
	for _, sl := range b.w.pattern {
		ep := endpointOf(sl.kind)
		if sl.kind == worldAdvance {
			writes = appendNew(writes, ep)
		} else {
			reads = appendNew(reads, ep)
		}
	}
	phase := func(k, shard int) scrape { return ph.scrapes[k][shard].minus(ph.scrapes[k-1][shard]) }
	open := phase(2, dp.entry)
	server := open.histogram(httpSeconds, reads...)
	out := map[string]float64{
		"adhocd.server_mean_us":         server.mean() * 1e6,
		"adhocd.server_p99_us":          server.quantile(0.99) * 1e6,
		"adhocd.advance_server_mean_us": open.histogram(httpSeconds, writes...).mean() * 1e6,
	}

	// CPU and GC per request under the closed loop, over every shard.
	var cpu, gcs, rejected float64
	for i := range dp.shards {
		cpu += ph.cpu[1][i] - ph.cpu[0][i]
		gcs += phase(1, i).sum("go_gc_cycles_total", "")
		rejected += ph.scrapes[2][i].minus(ph.scrapes[0][i]).sum("adhoc_http_rejected_total", "")
	}
	closedReqs := float64(requests(ph.closed))
	out["adhocd.cpu_us_per_req"] = cpu / closedReqs
	out["adhocd.gc_per_kreq"] = gcs / closedReqs * 1000
	out["adhocd.rejected"] = rejected

	// Client view of the same requests the server mean covers.
	var clientTime time.Duration
	var clientReqs int
	var traced, untraced []time.Duration
	var advances []time.Duration
	for i := range ph.open {
		r := &ph.open[i]
		if r.j.kind == worldAdvance {
			advances = append(advances, r.latency())
			continue
		}
		clientTime += r.reqTime
		clientReqs += r.reqs
		if r.traced {
			traced = append(traced, r.done.Sub(r.start))
		} else {
			untraced = append(untraced, r.done.Sub(r.start))
		}
	}
	client := us(clientTime) / float64(max(clientReqs, 1))
	out["bench.client_mean_us"] = client
	out["transport.mean_us"] = client - out["adhocd.server_mean_us"]
	out["bench.trace_overhead_us"] = us(meanDur(traced)) - us(meanDur(untraced))
	out["bench.advance_p99_ms"] = quantileDur(advances, 0.99).Seconds() * 1e3

	if len(dp.shards) > 1 {
		owner := phase(2, dp.owner).histogram(httpSeconds, reads...)
		out["cluster.forward_us"] = (server.mean() - owner.mean()) * 1e6
		out["cluster.forwards_per_req"] = open.sum("adhoc_cluster_forwards_total", "") / max(server.count, 1)
	}

	layers, err := measureLayers(b.w, b.seed, openJobs, budgets, b.tr)
	if err != nil {
		return nil, err
	}
	for k, v := range layers {
		out[k] = v
	}
	out["engine.share_of_server"] = out["engine.us_per_request"] / out["adhocd.server_mean_us"]

	// The open-loop tail, the generator's lag and the closed-loop peaks
	// vary too much on a shared host to bound; they ride here, from the
	// figures printed beside the end-to-end ones. A layer the workload
	// does not serve reads 0.
	ms := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		if a, ok := alongside[m.name]; ok {
			ms[m.name] = a
		} else {
			ms[m.name] = metric{out[m.name], m.unit}
		}
	}
	return ms, nil
}

func appendNew(xs []string, x string) []string {
	if contains(xs, x) {
		return xs
	}
	return append(xs, x)
}

func requests(rs []result) int {
	n := 0
	for i := range rs {
		n += rs[i].reqs
	}
	return n
}

// layerMetrics are the metrics of the traced run, in BENCHMARK.json.
var layerMetrics = []struct{ name, unit string }{
	{"adhocd.server_mean_us", "us"},
	{"adhocd.server_p99_us", "us"},
	{"adhocd.advance_server_mean_us", "us"},
	{"adhocd.cpu_us_per_req", "us"},
	{"adhocd.gc_per_kreq", "1/kreq"},
	{"adhocd.rejected", "count"},
	{"transport.mean_us", "us"},
	{"engine.route_us_p50", "us"},
	{"engine.route_us_p99", "us"},
	{"engine.batch_us_per_pair", "us"},
	{"engine.allocs_per_route", "count"},
	{"engine.certificate_ratio", "ratio"},
	{"engine.us_per_request", "us"},
	{"engine.share_of_server", "ratio"},
	{"route.hops_per_query", "count"},
	{"route.rounds_per_query", "count"},
	{"route.resume_segments_per_query", "count"},
	{"flatgraph.ns_per_hop", "ns"},
	{"token.sign_us", "us"},
	{"token.verify_us", "us"},
	{"registry.compile_ms", "ms"},
	{"registry.hit_us", "us"},
	{"degred.reduce_ms", "ms"},
	{"dynamic.advance_us", "us"},
	{"dynamic.recompile_us", "us"},
	{"dynamic.delta_ratio", "ratio"},
	{"dynamic.route_us_p50", "us"},
	{"dynamic.route_us_p99", "us"},
	{"dynamic.aborted_round_ratio", "ratio"},
	{"cluster.forward_us", "us"},
	{"cluster.forwards_per_req", "count"},
	{"cluster.owner_ns", "ns"},
	{"bench.client_mean_us", "us"},
	{"bench.p90_ms", "ms"},
	{"bench.p99_ms", "ms"},
	{"bench.advance_p99_ms", "ms"},
	{"bench.peak_rps", "1/s"},
	{"bench.cpu_peak_rps", "1/s"},
	{"bench.lag_p99_ms", "ms"},
	{"bench.steal_share", "ratio"},
	{"bench.trace_overhead_us", "us"},
}
