package main

import (
	"fmt"
	"strings"
	"time"

	"github.com/eoml/eoml/internal/core"
	"github.com/eoml/eoml/internal/fleet"
	"github.com/eoml/eoml/internal/provenance"
)

// metric is one named figure of the result line.
type metric struct {
	name  string
	unit  string
	value float64
}

// perLayerNames lists the per-layer metrics in print order with their
// units. Every traced run reports all of them; a layer a workload does
// not exercise reads 0.
var perLayerNames = []struct{ name, unit string }{
	{"laads.request_ms_p50", "ms"},
	{"laads.requests_per_granule", "count"},
	{"laads.bytes_per_granule", "bytes"},
	{"laads.streams_inflight_mean", "count"},
	{"hdf.decode_ms_per_granule", "ms"},
	{"tile.extract_ms_per_granule", "ms"},
	{"tile.write_ms_per_file", "ms"},
	{"tile.tiles_per_granule", "count"},
	{"parsl.queued_mean", "count"},
	{"parsl.busy_mean", "count"},
	{"watch.handoff_ms_p50", "ms"},
	{"watch.scans_per_file", "count"},
	{"stage.preprocess_ms_p50", "ms"},
	{"stage.written_to_labeled_ms_p50", "ms"},
	{"stage.inference_tail_s", "s"},
	{"stage.download_s", "s"},
	{"stage.preprocess_s", "s"},
	{"stage.ingest_s", "s"},
	{"stage.inference_s", "s"},
	{"stage.shipment_s", "s"},
	{"aicca.batch_tiles_mean", "count"},
	{"aicca.batch_fill_ratio", "ratio"},
	{"aicca.flush_ms_mean", "ms"},
	{"aicca.label_ms_per_tile", "ms"},
	{"tensor.tile_arena_hit_ratio", "ratio"},
	{"tensor.ricc_arena_hit_ratio", "ratio"},
	{"transfer.ship_ms_per_file", "ms"},
	{"fleet.lease_batch_ms_p50", "ms"},
	{"fleet.lease_batch_size_mean", "count"},
	{"fleet.result_batch_size_mean", "count"},
	{"fleet.dispatch_delay_ms_p50", "ms"},
	{"fleet.useful_dispatch_ratio", "ratio"},
	{"fleet.prefetch_inflight_mean", "count"},
	{"loadgen.lag_ms_max", "ms"},
	{"process.cpu_s_per_granule", "s"},
	{"trace.uncovered_share", "ratio"},
	{"trace.overhead_share", "ratio"},
	{"replay.wall_ms_per_granule", "ms"},
	{"replay.laads.self_ms_per_granule", "ms"},
	{"replay.hdf.self_ms_per_granule", "ms"},
	{"replay.tile.self_ms_per_granule", "ms"},
	{"replay.watch.self_ms_per_granule", "ms"},
	{"replay.watch.wait_ms_per_granule", "ms"},
	{"replay.aicca.self_ms_per_granule", "ms"},
	{"replay.aicca.wait_ms_per_granule", "ms"},
	{"replay.inference.self_ms_per_granule", "ms"},
	{"replay.transfer.self_ms_per_granule", "ms"},
}

// pipelineLayer reports whether a pipeline span belongs to a layer, as
// opposed to a granule's root or an orchestrator stage.
func pipelineLayer(s Span) bool { return s.Layer != "run" && s.Layer != "stage" }

// emitPipelineSpans turns one traced run's observations into spans:
// archive requests, provenance activities and batch flushes under each
// granule's root, plus stage and lease spans. Report spans and timeline
// offsets count from the run's epoch, taken as the instant Run was
// called.
func emitPipelineSpans(rec *recorder, run string, r repResult) {
	at := func(off float64) float64 { return rec.at(r.t0.Add(secs(off))) }
	for _, s := range r.report.Spans.All() {
		rec.add(Span{Run: run, Layer: "stage", Name: "stage." + s.Name, Start: at(s.Start), End: at(s.End)})
	}
	for _, fl := range flushes(r.report.Timeline.Samples("inference.batch")) {
		rec.add(Span{Run: run, Layer: "aicca", Name: "aicca.flush", Start: at(fl.lo), End: at(fl.hi)})
	}
	for _, l := range r.leases {
		rec.add(Span{Run: run, Layer: "fleet", Name: fmt.Sprintf("fleet.lease[%d]", len(l.specs)), Start: rec.at(l.start), End: rec.at(l.end)})
	}

	roots := map[int]int{}
	root := func(idx int) int {
		if id, ok := roots[idx]; ok {
			return id
		}
		due := r.t0
		if d, ok := r.dues[idx]; ok {
			due = d
		}
		roots[idx] = rec.add(Span{Trace: fmt.Sprintf("g%03d", idx), Run: run, Layer: "run", Name: "granule", Start: rec.at(due), End: rec.at(due)})
		return roots[idx]
	}
	granuleEnd := map[int]time.Time{}
	for _, q := range r.reqs {
		name := "laads.listing"
		parent := 0
		trace := ""
		if q.granule >= 0 {
			name, parent, trace = "laads.get", root(q.granule), fmt.Sprintf("g%03d", q.granule)
		}
		rec.add(Span{Parent: parent, Trace: trace, Run: run, Layer: "laads", Name: name, Start: rec.at(q.start), End: rec.at(q.end)})
	}
	for _, a := range r.prov.Activities() {
		var name string
		switch a.Name {
		case "preprocess":
			name = strings.TrimPrefix(a.Outputs[0], "tiles:")
		case "inference":
			name = strings.TrimPrefix(a.Outputs[0], "labeled:")
		case "shipment":
			rec.add(Span{Run: run, Layer: "transfer", Name: "shipment", Start: rec.at(a.Started), End: rec.at(a.Ended)})
			continue
		default:
			continue
		}
		idx, ok := r.verify[name]
		if !ok {
			continue
		}
		rec.add(Span{Parent: root(idx), Trace: fmt.Sprintf("g%03d", idx), Run: run, Layer: a.Name, Name: a.Name, Start: rec.at(a.Started), End: rec.at(a.Ended)})
		if a.Name == "inference" {
			granuleEnd[idx] = a.Ended
		}
	}
	for idx, id := range roots {
		due := r.t0
		if d, ok := r.dues[idx]; ok {
			due = d
		}
		end, ok := granuleEnd[idx]
		if !ok {
			end = due
		}
		rec.set(id, Span{Trace: fmt.Sprintf("g%03d", idx), Run: run, Layer: "run", Name: "granule", Start: rec.at(due), End: rec.at(end)})
	}
}

// uncoveredShare is the share of the granules' time on the blocking
// path — from arrival to the labeled file landing in the outbox — that
// no layer span covers: the granule's own archive requests and
// activities, or a run-wide flush, lease or shipment. Orchestration
// waits such as poll intervals, stage barriers and queueing are what
// remains.
func uncoveredShare(rec *recorder, run string) float64 {
	var shared []interval
	own := map[string][]interval{}
	var roots []Span
	for _, s := range rec.of(run) {
		switch {
		case s.Layer == "run":
			roots = append(roots, s)
		case !pipelineLayer(s):
		case s.Trace == "":
			shared = append(shared, interval{s.Start, s.End})
		default:
			own[s.Trace] = append(own[s.Trace], interval{s.Start, s.End})
		}
	}
	var total, covered float64
	for _, r := range roots {
		total += r.Duration()
		covered += coverage(append(own[r.Trace], shared...), r.Start, r.End)
	}
	return 1 - ratio(covered, total)
}

// activityMS is the duration of a provenance activity in milliseconds.
func activityMS(a provenance.Activity) float64 {
	return float64(a.Ended.Sub(a.Started)) / float64(time.Millisecond)
}

// layerMetrics records the traced runs' spans in rec and computes
// every per-layer metric from the traced runs, the untraced runs of the
// same process (for tracing overhead and generator lag) and the replay,
// whose spans rec already holds.
func layerMetrics(rec *recorder, traced, untraced []repResult, rs replayStats) []metric {
	v := map[string]float64{}
	var requested, wall, tilesProduced, filesShipped float64
	var getMS, preMS, handMS, leaseMS, delayMS []float64
	var tails, uncovered []float64
	stageS := map[string][]float64{}
	var nReqs, bytes, reqBusy float64
	var batchSum, batchCount, flushSum, flushCount float64
	var tileHits, tileAll, riccHits, riccAll float64
	var shipMS float64
	var leaseSizeSum, leaseSizeCount, resultSizeSum, resultSizeCount float64
	var completed, dispatched float64
	var queued, busy, prefetch []float64

	for i, r := range traced {
		run := fmt.Sprintf("pipeline/%d", i+1)
		emitPipelineSpans(rec, run, r)
		uncovered = append(uncovered, uncoveredShare(rec, run))

		requested += float64(r.requested)
		wall += r.wall
		tilesProduced += float64(r.report.TilesProduced)
		filesShipped += float64(r.report.FilesShipped)
		for _, q := range r.reqs {
			nReqs++
			bytes += float64(q.bytes)
			ms := float64(q.end.Sub(q.start)) / float64(time.Millisecond)
			reqBusy += ms / 1000
			if q.granule >= 0 {
				getMS = append(getMS, ms)
			}
		}
		for _, s := range r.samples {
			if s.hasExecutor {
				queued = append(queued, s.queued)
				busy = append(busy, s.busy)
			}
			prefetch = append(prefetch, s.prefetchInflight)
		}

		preEnd := map[string]time.Time{}
		var lastPre, lastInf time.Time
		for _, a := range r.prov.Activities() {
			switch a.Name {
			case "preprocess":
				preMS = append(preMS, activityMS(a))
				preEnd[strings.TrimPrefix(a.Outputs[0], "tiles:")] = a.Ended
				if a.Ended.After(lastPre) {
					lastPre = a.Ended
				}
			case "shipment":
				shipMS += activityMS(a)
			}
		}
		for _, a := range r.prov.Activities() {
			if a.Name != "inference" {
				continue
			}
			if a.Ended.After(lastInf) {
				lastInf = a.Ended
			}
			if w, ok := preEnd[strings.TrimPrefix(a.Inputs[0], "tiles:")]; ok {
				handMS = append(handMS, float64(a.Ended.Sub(w))/float64(time.Millisecond))
			}
		}
		if !lastPre.IsZero() && !lastInf.IsZero() {
			tails = append(tails, lastInf.Sub(lastPre).Seconds())
		}
		for _, name := range []string{"download", "preprocess", "ingest", "inference", "shipment"} {
			d := 0.0
			if s, ok := r.report.Spans.Get(name); ok {
				d = s.Duration()
			}
			stageS[name] = append(stageS[name], d)
		}

		s, c := histTotals(r.report.Metrics, "eoml_labeler_batch_tiles")
		batchSum, batchCount = batchSum+s, batchCount+c
		s, c = histTotals(r.report.Metrics, "eoml_labeler_flush_seconds")
		flushSum, flushCount = flushSum+s, flushCount+c
		h := labeledValue(r.report.Metrics, "eoml_arena_hits_total", "arena", "tile")
		tileHits += h
		tileAll += h + labeledValue(r.report.Metrics, "eoml_arena_misses_total", "arena", "tile")
		h = labeledValue(r.report.Metrics, "eoml_arena_hits_total", "arena", "ricc")
		riccHits += h
		riccAll += h + labeledValue(r.report.Metrics, "eoml_arena_misses_total", "arena", "ricc")

		// Fleet figures; a local run has no coordinator and no leases.
		s, c = histTotals(r.coord, "eoml_fleet_lease_batch_size")
		leaseSizeSum, leaseSizeCount = leaseSizeSum+s, leaseSizeCount+c
		s, c = histTotals(r.coord, "eoml_fleet_result_batch_size")
		resultSizeSum, resultSizeCount = resultSizeSum+s, resultSizeCount+c
		done, _ := familySum(r.coord, "eoml_fleet_tasks_completed_total")
		completed += done
		submitted := r.t0
		if sp, ok := r.report.Spans.Get("preprocess"); ok {
			submitted = r.t0.Add(secs(sp.Start))
		}
		for _, l := range r.leases {
			leaseMS = append(leaseMS, float64(l.end.Sub(l.start))/float64(time.Millisecond))
			dispatched += float64(len(l.specs))
			for _, spec := range l.specs {
				if spec.Function == fleet.PreprocessFunction {
					delayMS = append(delayMS, float64(l.start.Sub(submitted))/float64(time.Millisecond))
				}
			}
		}
	}

	v["laads.request_ms_p50"] = median(getMS)
	v["laads.requests_per_granule"] = ratio(nReqs, requested)
	v["laads.bytes_per_granule"] = ratio(bytes, requested)
	v["laads.streams_inflight_mean"] = ratio(reqBusy, wall)
	v["tile.tiles_per_granule"] = ratio(tilesProduced, requested)
	v["parsl.queued_mean"] = mean(queued)
	v["parsl.busy_mean"] = mean(busy)
	v["stage.preprocess_ms_p50"] = median(preMS)
	v["stage.written_to_labeled_ms_p50"] = median(handMS)
	v["stage.inference_tail_s"] = median(tails)
	for name, ds := range stageS {
		v["stage."+name+"_s"] = median(ds)
	}
	v["aicca.batch_tiles_mean"] = ratio(batchSum, batchCount)
	v["aicca.batch_fill_ratio"] = ratio(v["aicca.batch_tiles_mean"], float64(core.DefaultConfig().BatchTiles))
	v["aicca.flush_ms_mean"] = ratio(flushSum*1000, flushCount)
	v["tensor.tile_arena_hit_ratio"] = ratio(tileHits, tileAll)
	v["tensor.ricc_arena_hit_ratio"] = ratio(riccHits, riccAll)
	v["transfer.ship_ms_per_file"] = ratio(shipMS, filesShipped)
	v["fleet.lease_batch_ms_p50"] = median(leaseMS)
	v["fleet.lease_batch_size_mean"] = ratio(leaseSizeSum, leaseSizeCount)
	v["fleet.result_batch_size_mean"] = ratio(resultSizeSum, resultSizeCount)
	v["fleet.dispatch_delay_ms_p50"] = median(delayMS)
	v["fleet.useful_dispatch_ratio"] = ratio(completed, dispatched)
	v["fleet.prefetch_inflight_mean"] = mean(prefetch)
	for _, runs := range [][]repResult{traced, untraced} {
		for _, r := range runs {
			v["loadgen.lag_ms_max"] = max(v["loadgen.lag_ms_max"], r.lagMax)
		}
	}
	var cpu []float64
	for _, r := range untraced {
		cpu = append(cpu, r.cpu/float64(r.requested))
	}
	v["process.cpu_s_per_granule"] = median(cpu)
	v["trace.uncovered_share"] = median(uncovered)
	v["trace.overhead_share"] = ratio(median(walls(traced)), median(walls(untraced))) - 1

	// Replay: single-threaded service time per layer.
	g := float64(rs.granules)
	v["replay.wall_ms_per_granule"] = ratio(rs.wall*1000, g)
	v["watch.handoff_ms_p50"] = median(rs.handoffs)
	v["watch.scans_per_file"] = ratio(float64(rs.scans), float64(rs.files))
	v["aicca.label_ms_per_tile"] = ratio(rs.flushSeconds*1000, float64(rs.tiles))
	spans := rec.of(replayRun)
	self := selfTimes(spans)
	byName := map[string]float64{}
	for _, s := range spans {
		if s.Layer == "run" {
			continue
		}
		key := "replay." + s.Layer + ".self_ms_per_granule"
		if s.Wait {
			key = "replay." + s.Layer + ".wait_ms_per_granule"
		}
		v[key] += self[s.ID] * 1000 / g
		byName[s.Name] += s.Duration() * 1000
	}
	v["hdf.decode_ms_per_granule"] = ratio(byName["hdf.ReadFile"], g)
	v["tile.extract_ms_per_granule"] = ratio(byName["tile.Extract"], g)
	v["tile.write_ms_per_file"] = ratio(byName["tile.WriteNetCDF"], float64(rs.files))

	out := make([]metric, 0, len(perLayerNames))
	for _, m := range perLayerNames {
		out = append(out, metric{name: m.name, unit: m.unit, value: v[m.name]})
	}
	return out
}

func walls(rs []repResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.wall
	}
	return out
}
