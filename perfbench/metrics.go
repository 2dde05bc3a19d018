package main

import (
	"math"
	"sort"
)

var inf = math.Inf(1)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// failedValue stands in for a latency percentile that lands on failed
// operations, which JSON cannot carry as +Inf.
const failedValue = 1e9

// pct returns the q-quantile of xs by nearest rank (0 for no samples).
// Failed operations (+Inf) rank above every completed one.
func pct(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	v := s[max(i, 0)]
	if math.IsInf(v, 1) {
		return failedValue
	}
	return v
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd computes the untraced run's user-visible metrics.
func endToEnd(st *stats, seconds, setupS, heapMB float64, storedBytes, chars int64) map[string]metric {
	ops, flushes := st.ops[0], st.flushes[0]
	return map[string]metric{
		"op_ms.p50":             {pct(ops, 0.50), "ms"},
		"op_ms.p99":             {pct(ops, 0.99), "ms"},
		"flush_ms.p50":          {pct(flushes, 0.50), "ms"},
		"flush_ms.p95":          {pct(flushes, 0.95), "ms"},
		"ops_per_s":             {float64(st.done) / seconds, "1/s"},
		"stored_bytes_per_char": {ratio(float64(storedBytes), float64(chars)), "B/char"},
		"heap_peak_mb":          {heapMB, "MB"},
		"setup_s":               {setupS, "s"},
	}
}

// layerInputs is what the traced run measured besides the spans.
type layerInputs struct {
	st            *stats
	obs           obsDelta
	gcCPUFraction float64
	probes        probeResult
}

// layers computes the per-layer metrics of a traced run from its spans.
// Only traced units recorded spans, so every ratio below has traced units
// on both sides.
func layers(t *tree, in layerInputs) map[string]metric {
	var (
		clientSave, medSave, medOpen, wireSave, srvSave, srvLoad, srvCatchup []float64
		storePut, storeGet, gaps                                             []float64
		medSaves, medConflicts, keystrokes, opens                            float64
		wireSaves, wireConflicts, wireCatchups, wireSaveBytes, wireFetches   float64
		putBytes, puts, srvFetches, srvFetchHits                             float64
		ack, durable, open                                                   ledger
	)
	wiresBy := map[int8][]span{}
	for i := range t.spans {
		if s := &t.spans[i]; s.kind == kWire {
			wiresBy[s.author] = append(wiresBy[s.author], *s)
		}
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	for i := range t.spans {
		id := int32(i)
		s := &t.spans[i]
		switch s.kind {
		case kKeystroke:
			keystrokes++
			ack.add(s.dur(), t.self(id))
		case kOpen:
			opens++
			open.add(s.dur(), t.self(id))
		case kFlush:
			// The durable path is a Flush that waited for saves.
			if g, residual, saved := flushLedger(*s, wiresBy[s.author]); saved {
				for _, ns := range g {
					gaps = append(gaps, us(ns))
				}
				durable.add(s.dur(), residual)
			}
		case kSync:
			clientSave = append(clientSave, us(t.self(id)))
		case kMediator:
			switch s.req {
			case rSave:
				medSaves++
				if s.status == 409 {
					medConflicts++
				}
				medSave = append(medSave, us(t.self(id)))
			case rFetch:
				if s.parent >= 0 && t.spans[s.parent].kind == kLoad {
					medOpen = append(medOpen, ms(t.self(id)))
				}
			}
		case kWire:
			switch s.req {
			case rSave:
				wireSaves++
				wireSaveBytes += float64(s.bytes)
				if s.status == 409 {
					wireConflicts++
				}
				wireSave = append(wireSave, ms(s.dur()))
			case rFetch:
				wireFetches++
			case rCatchup:
				wireCatchups++
			}
		case kServer:
			switch s.req {
			case rSave:
				srvSave = append(srvSave, us(t.self(id)))
			case rFetch:
				srvFetches++
				if len(t.children[id]) == 0 {
					srvFetchHits++ // no Backend.Get: served from the resident cache
				}
				srvLoad = append(srvLoad, us(t.self(id)))
			case rCatchup:
				srvCatchup = append(srvCatchup, us(t.self(id)))
			}
		case kStore:
			if s.parent < 0 {
				continue // not under a traced request
			}
			switch s.req {
			case rPut:
				puts++
				putBytes += float64(s.bytes)
				storePut = append(storePut, ms(s.dur()))
			case rGet:
				storeGet = append(storeGet, ms(s.dur()))
			}
		}
	}
	ops, flushes := in.st.ops, in.st.flushes
	return map[string]metric{
		"client.save_self_us.p50":         {pct(clientSave, 0.50), "us"},
		"mediator.save_us.p50":            {pct(medSave, 0.50), "us"},
		"mediator.save_us.p99":            {pct(medSave, 0.99), "us"},
		"mediator.local_conflict_ratio":   {ratio(medConflicts, medSaves), "ratio"},
		"mediator.open_self_ms.p50":       {pct(medOpen, 0.50), "ms"},
		"mediator.writer_gap_us.p50":      {pct(gaps, 0.50), "us"},
		"mediator.saves_per_edit":         {ratio(wireSaves, keystrokes), "ratio"},
		"mediator.catchups_per_conflict":  {ratio(wireCatchups, wireConflicts), "ratio"},
		"wire.save_ms.p50":                {pct(wireSave, 0.50), "ms"},
		"wire.save_ms.p99":                {pct(wireSave, 0.99), "ms"},
		"wire.bytes_per_edit":             {ratio(wireSaveBytes, keystrokes), "B"},
		"wire.load_bytes_per_char":        {ratio(float64(in.st.fetchBytes), float64(in.st.chars)), "B/char"},
		"wire.conflict_ratio":             {ratio(wireConflicts, wireSaves), "ratio"},
		"wire.fetches_per_open":           {ratio(wireFetches, opens), "ratio"},
		"server.save_self_us.p50":         {pct(srvSave, 0.50), "us"},
		"server.load_self_us.p50":         {pct(srvLoad, 0.50), "us"},
		"server.catchup_self_us.p50":      {pct(srvCatchup, 0.50), "us"},
		"server.cache_hit_ratio":          {ratio(srvFetchHits, srvFetches), "ratio"},
		"store.put_ms.p50":                {pct(storePut, 0.50), "ms"},
		"store.put_ms.p99":                {pct(storePut, 0.99), "ms"},
		"store.put_bytes_per_save":        {ratio(putBytes, puts), "B"},
		"store.fsyncs_per_put":            {ratio(in.obs.fsyncs, in.obs.puts), "ratio"},
		"store.get_ms.p50":                {pct(storeGet, 0.50), "ms"},
		"core.open_us_per_kchar":          {in.probes.openUsPerKchar, "us/kchar"},
		"crypt.kdf_ms":                    {in.probes.kdfMs, "ms"},
		"core.splice_us.p50":              {in.probes.spliceUsP50, "us"},
		"runtime.gc_cpu_fraction":         {in.gcCPUFraction, "ratio"},
		"ledger.unattributed_pct.ack":     {ack.pct(), "%"},
		"ledger.unattributed_pct.durable": {durable.pct(), "%"},
		"ledger.unattributed_pct.open":    {open.pct(), "%"},
		"trace.overhead_pct.op_ms.p50":    {overheadPct(ops), "%"},
		"trace.overhead_pct.flush_ms.p50": {overheadPct(flushes), "%"},
	}
}

// ledger sums one path's wall time and the part of it no layer covers.
type ledger struct{ wall, residual int64 }

func (l *ledger) add(wall, residual int64) {
	l.wall += wall
	l.residual += residual
}

func (l ledger) pct() float64 { return 100 * ratio(float64(l.residual), float64(l.wall)) }

// overheadPct compares the median of traced units with that of the
// untraced units interleaved with them in the same run.
func overheadPct(split [2][]float64) float64 {
	base := pct(split[0], 0.50)
	return 100 * ratio(pct(split[1], 0.50)-base, base)
}
