package main

import (
	"math"
	"sort"
)

// metricDef declares one metric once: its name, unit and direction, and for
// an end-to-end metric the share of the parent's median by which it may get
// worse. Moves says, for a per-layer metric, which end-to-end metric it
// should move and on which workload (see README.md).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
}

// endToEnd is what a user of the store sees. Every workload reports all of
// them, from untraced runs only.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "put_ops_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "put_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "get_hot_ops_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "get_cold_ops_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "seek_ops_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "scan_keys_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "compact_mib_s", Unit: "MiB/s", Better: "higher", Bound: 0.25},
	{Name: "write_amp", Unit: "x", Better: "lower", Bound: 0.25},
	{Name: "space_amp", Unit: "x", Better: "lower", Bound: 0.10},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", Bound: 0.20},
	{Name: "read_blocks_op", Unit: "blocks/op", Better: "lower", Bound: 0.05},
}

const (
	movesPut    = "put_ops_s, put_p50_us on kv-os"
	movesLoad   = "put_ops_s, write_amp on load-ssd/load-hdd; space_amp on mixed-os"
	movesCore   = "compact_mib_s then put_ops_s on load-ssd (S2-S6) and load-hdd (S1, S7)"
	movesGet    = "get_hot_ops_s, get_cold_ops_s, scan_keys_s on kv-os"
	movesSeek   = "seek_ops_s on every workload"
	movesBuild  = "compact_mib_s on load-ssd"
	movesCache  = "get_hot_ops_s on mixed-os; read_blocks_op everywhere"
	movesDevice = "compact_mib_s, get_cold_ops_s, seek_ops_s on load-ssd/load-hdd"
	movesIso    = "isolated PCP gain, to set against live compact_mib_s"
	movesNone   = "context for put_ops_s and get_*"
)

// perLayer is reported by traced runs only and carries no bound.
var perLayer = []metricDef{
	{Name: "client.put_p99_us", Unit: "us", Better: "lower", Moves: movesNone},
	{Name: "client.put_p999_us", Unit: "us", Better: "lower", Moves: movesNone},
	{Name: "client.put_max_ms", Unit: "ms", Better: "lower", Moves: movesNone},
	{Name: "client.get_hot_p50_us", Unit: "us", Better: "lower", Moves: movesNone},
	{Name: "client.get_cold_p50_us", Unit: "us", Better: "lower", Moves: movesNone},
	{Name: "client.get_cold_p99_us", Unit: "us", Better: "lower", Moves: movesNone},
	{Name: "client.fill_s", Unit: "s", Better: "lower", Moves: movesNone},
	{Name: "client.drain_s", Unit: "s", Better: "lower", Moves: movesNone},
	{Name: "client.settle_s", Unit: "s", Better: "lower", Moves: movesNone},
	{Name: "client.reopen_s", Unit: "s", Better: "lower", Moves: movesNone},
	{Name: "client.trace_overhead_pct", Unit: "%", Better: "lower", Moves: movesNone},
	{Name: "client.cpu_us_put", Unit: "us", Better: "lower", Moves: movesNone},

	{Name: "lsm.stall_s", Unit: "s", Better: "lower", Moves: movesLoad},
	{Name: "lsm.stall_count", Unit: "count", Better: "lower", Moves: movesLoad},
	{Name: "lsm.flush_count", Unit: "count", Better: "lower", Moves: movesLoad},
	{Name: "lsm.flush_mib", Unit: "MiB", Better: "lower", Moves: movesLoad},
	{Name: "lsm.flush_busy_s", Unit: "s", Better: "lower", Moves: movesLoad},
	{Name: "lsm.compaction_count", Unit: "count", Better: "lower", Moves: movesLoad},
	{Name: "lsm.trivial_moves", Unit: "count", Better: "higher", Moves: movesLoad},
	{Name: "lsm.compaction_in_mib", Unit: "MiB", Better: "lower", Moves: movesLoad},
	{Name: "lsm.compaction_out_mib", Unit: "MiB", Better: "lower", Moves: movesLoad},
	{Name: "lsm.compaction_busy_s", Unit: "s", Better: "lower", Moves: movesLoad},
	{Name: "lsm.max_concurrent_background", Unit: "count", Better: "higher", Moves: movesLoad},
	{Name: "lsm.governor_grows", Unit: "count", Better: "lower", Moves: movesLoad},
	{Name: "lsm.governor_shrinks", Unit: "count", Better: "lower", Moves: movesLoad},
	{Name: "lsm.governor_denials", Unit: "count", Better: "lower", Moves: movesLoad},
	{Name: "lsm.policy_switches", Unit: "count", Better: "lower", Moves: movesLoad},
	{Name: "lsm.l0_tables_end", Unit: "count", Better: "lower", Moves: movesLoad},
	{Name: "lsm.tables_end", Unit: "count", Better: "lower", Moves: movesLoad},
	{Name: "lsm.depth_end", Unit: "count", Better: "lower", Moves: movesLoad},

	{Name: "lsm.commit_group_mean", Unit: "count", Better: "higher", Moves: movesPut},
	{Name: "lsm.wal_syncs", Unit: "count", Better: "lower", Moves: movesPut},
	{Name: "lsm.filter_skips_per_get", Unit: "count", Better: "lower", Moves: "get_cold_ops_s on kv-os"},

	{Name: "core.s1_read_s", Unit: "s", Better: "lower", Moves: movesCore},
	{Name: "core.s2_checksum_s", Unit: "s", Better: "lower", Moves: movesCore},
	{Name: "core.s3_decompress_s", Unit: "s", Better: "lower", Moves: movesCore},
	{Name: "core.s4_sort_s", Unit: "s", Better: "lower", Moves: movesCore},
	{Name: "core.s5_compress_s", Unit: "s", Better: "lower", Moves: movesCore},
	{Name: "core.s6_rechecksum_s", Unit: "s", Better: "lower", Moves: movesCore},
	{Name: "core.s7_write_s", Unit: "s", Better: "lower", Moves: movesCore},
	{Name: "core.busy_read_s", Unit: "s", Better: "lower", Moves: movesCore},
	{Name: "core.busy_compute_s", Unit: "s", Better: "lower", Moves: movesCore},
	{Name: "core.busy_write_s", Unit: "s", Better: "lower", Moves: movesCore},
	{Name: "core.idle_read_s", Unit: "s", Better: "lower", Moves: movesCore},
	{Name: "core.idle_compute_s", Unit: "s", Better: "lower", Moves: movesCore},
	{Name: "core.idle_write_s", Unit: "s", Better: "lower", Moves: movesCore},

	{Name: "cache.hit_rate_hot", Unit: "%", Better: "higher", Moves: movesCache},
	{Name: "cache.hit_rate_cold", Unit: "%", Better: "higher", Moves: movesCache},
	{Name: "cache.evictions", Unit: "count", Better: "lower", Moves: movesCache},
	{Name: "cache.prewarmed", Unit: "count", Better: "higher", Moves: movesCache},

	{Name: "device.reads", Unit: "count", Better: "lower", Moves: movesDevice},
	{Name: "device.writes", Unit: "count", Better: "lower", Moves: movesDevice},
	{Name: "device.read_mib", Unit: "MiB", Better: "lower", Moves: movesDevice},
	{Name: "device.write_mib", Unit: "MiB", Better: "lower", Moves: movesDevice},
	{Name: "device.busy_read_s", Unit: "s", Better: "lower", Moves: movesDevice},
	{Name: "device.busy_write_s", Unit: "s", Better: "lower", Moves: movesDevice},
	{Name: "device.queue_wait_s", Unit: "s", Better: "lower", Moves: movesDevice},
	{Name: "device.util_pct", Unit: "%", Better: "higher", Moves: movesDevice},

	{Name: "wal.append_ns", Unit: "ns", Better: "lower", Moves: movesPut},
	{Name: "wal.bytes_per_put", Unit: "B", Better: "lower", Moves: movesPut},
	{Name: "memtable.put_ns", Unit: "ns", Better: "lower", Moves: movesPut},
	{Name: "lsm.put_residual_ns", Unit: "ns", Better: "lower", Moves: movesPut},

	{Name: "memtable.get_ns", Unit: "ns", Better: "lower", Moves: movesGet},
	{Name: "memtable.iter_next_ns", Unit: "ns", Better: "lower", Moves: movesGet},
	{Name: "bloom.probe_ns", Unit: "ns", Better: "lower", Moves: movesGet},
	{Name: "bloom.fp_rate", Unit: "%", Better: "lower", Moves: movesGet},
	{Name: "cache.get_ns", Unit: "ns", Better: "lower", Moves: movesGet},
	{Name: "cache.put_ns", Unit: "ns", Better: "lower", Moves: movesGet},
	{Name: "sstable.get_hit_ns", Unit: "ns", Better: "lower", Moves: movesGet},
	{Name: "sstable.get_miss_us", Unit: "us", Better: "lower", Moves: movesGet},
	{Name: "compress.decode_mib_s", Unit: "MiB/s", Better: "higher", Moves: movesGet},
	{Name: "checksum.mib_s", Unit: "MiB/s", Better: "higher", Moves: movesGet},
	{Name: "block.seek_ns", Unit: "ns", Better: "lower", Moves: movesGet},
	{Name: "block.next_ns", Unit: "ns", Better: "lower", Moves: movesGet},
	{Name: "lsm.get_residual_ns", Unit: "ns", Better: "lower", Moves: movesGet},

	{Name: "sstable.open_us", Unit: "us", Better: "lower", Moves: movesSeek},
	{Name: "sstable.iter_next_ns", Unit: "ns", Better: "lower", Moves: movesSeek},
	{Name: "lsm.tables_per_iterator", Unit: "count", Better: "lower", Moves: movesSeek},

	{Name: "compress.encode_mib_s", Unit: "MiB/s", Better: "higher", Moves: movesBuild},
	{Name: "compress.ratio", Unit: "x", Better: "higher", Moves: movesBuild},
	{Name: "block.build_ns_entry", Unit: "ns", Better: "lower", Moves: movesBuild},
	{Name: "bloom.build_ns_key", Unit: "ns", Better: "lower", Moves: movesBuild},
	{Name: "sstable.write_mib_s", Unit: "MiB/s", Better: "higher", Moves: movesBuild},

	{Name: "core.iso_ssd_scp_mib_s", Unit: "MiB/s", Better: "higher", Moves: movesIso},
	{Name: "core.iso_ssd_pcp_mib_s", Unit: "MiB/s", Better: "higher", Moves: movesIso},
	{Name: "core.iso_hdd_scp_mib_s", Unit: "MiB/s", Better: "higher", Moves: movesIso},
	{Name: "core.iso_hdd_pcp_mib_s", Unit: "MiB/s", Better: "higher", Moves: movesIso},
}

const mib = 1 << 20

// quantile returns the q-quantile of v by linear interpolation; it sorts v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return ratio(sum, float64(len(v)))
}

// favourable returns the decile of v on its better side: the value that a
// tenth of a cost's samples stay under, or a tenth of a rate's samples exceed.
//
// This host runs at two speeds. Most of the time a core goes at full speed;
// in spells of 0.1 to 20 s it goes 15 to 50% slower whatever the program
// does (no steal time is charged, so a neighbour on the core's other thread
// is the likely cause), and some quarter-hours have many such spells while
// others have none. A mean or a median over a phase shorter than a spell
// reads one speed or the other, and ten runs of the same code spread by 20%.
// So every timed metric that one thread can measure in a short slice is
// measured as many slices spread over the run, and the favourable decile is
// reported: it reads the full-speed mode as long as a tenth of the slices
// saw it, and it still moves in proportion when the code gets faster or
// slower.
func favourable(v []float64, better string) float64 {
	if better == "lower" {
		return quantile(v, 0.10)
	}
	return quantile(v, 0.90)
}

// ratio returns a/b, or 0 when b is 0 (a phase that did not happen).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
