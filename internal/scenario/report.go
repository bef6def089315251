package scenario

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"

	"spatl/internal/fl"
	"spatl/internal/netsim"
	"spatl/internal/telemetry"
)

// CellStats is everything the comparison report needs, derived entirely
// from a cell's journal (plus its spec for thresholds and the time
// model) — the journal, not in-memory state, is the contract between
// running a cell and reporting on it.
type CellStats struct {
	Rounds int
	// Trajectory is the run as fl.Run returns it, one record per eval
	// event, without per-client accuracy.
	Trajectory fl.Result
	// FinalAcc / BestAcc are the trajectory's; RoundsToTarget is its
	// RoundsToAcc at the spec's TargetAcc, or -1 (never / no target set).
	FinalAcc       float64
	BestAcc        float64
	RoundsToTarget int
	// UpBytes / DownBytes are the cumulative payload traffic at the last
	// round_end.
	UpBytes   int64
	DownBytes int64
	// Drops counts lost contributions; LateUploads quorum-folded
	// stragglers; Stragglers timed-out uploads.
	Drops       int
	LateUploads int
	Stragglers  int
	// SimSeconds is the netsim straggler-bound wall-clock estimate
	// (0 when the spec configures no Net).
	SimSeconds float64
}

// profileFor resolves the spec's Net into a link population. Custom
// fields override the named profile; a custom uplink without a downlink
// assumes the usual 4:1 asymmetry.
func profileFor(n Net) (netsim.Profile, bool) {
	var p netsim.Profile
	if n.Profile != "" {
		var ok bool
		if p, ok = netsim.ProfileByName(n.Profile); !ok {
			return p, false
		}
	}
	if n.UpMbps > 0 {
		p.MedianUpMbps = n.UpMbps
	}
	if n.DownMbps > 0 {
		p.MedianDownMbps = n.DownMbps
	}
	if n.Spread > 0 {
		p.Spread = n.Spread
	}
	if n.LatencyMs > 0 {
		p.LatencyMs = n.LatencyMs
	}
	if p.MedianDownMbps == 0 && p.MedianUpMbps > 0 {
		p.MedianDownMbps = 4 * p.MedianUpMbps
	}
	return p, p.MedianUpMbps > 0 && p.MedianDownMbps > 0
}

// StatsFromJournal replays a cell journal into CellStats: the
// trajectory, its fl.Result reductions, loss counts and the time model.
// The time model samples the spec's link and compute populations from
// cell-seed offsets (+71, +73), then charges each round its
// straggler-bound time: every journaled participant (uploads and drops
// alike) pays download plus compute; uploaders pay their journaled
// upload bytes on top.
func StatsFromJournal(r io.Reader, spec Spec) (CellStats, error) {
	spec = spec.WithDefaults()
	var st CellStats

	var links []netsim.Link
	var compute []float64
	if p, ok := profileFor(spec.Net); ok {
		links = netsim.SampleLinks(spec.Clients, p, spec.Seed+71)
		if spec.Net.ComputeSec > 0 {
			compute = netsim.SampleCompute(spec.Clients,
				netsim.ComputeProfile{MedianSec: spec.Net.ComputeSec, Spread: spec.Net.ComputeSpread},
				spec.Seed+73)
		}
	}

	var bcast int64
	var selected []int
	var upBytes []int64
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e telemetry.Event
		if err := json.Unmarshal(line, &e); err != nil {
			return st, fmt.Errorf("scenario: bad journal line: %w", err)
		}
		switch e.Ev {
		case telemetry.EvRoundStart:
			bcast = e.Bytes
			selected, upBytes = selected[:0], upBytes[:0]
		case telemetry.EvClientUpload:
			if e.Client >= 0 && e.Client < spec.Clients {
				selected = append(selected, e.Client)
				upBytes = append(upBytes, e.Bytes)
			}
		case telemetry.EvLateUpload:
			st.LateUploads++
		case telemetry.EvStraggler:
			st.Stragglers++
		case telemetry.EvDrop:
			st.Drops++
			if e.Client >= 0 && e.Client < spec.Clients {
				// A crashed client still received the broadcast and
				// computed; its upload never lands (0 bytes).
				selected = append(selected, e.Client)
				upBytes = append(upBytes, 0)
			}
		case telemetry.EvRoundEnd:
			if e.Round+1 > st.Rounds {
				st.Rounds = e.Round + 1
			}
			st.UpBytes, st.DownBytes = e.Up, e.Down
			if links != nil && len(selected) > 0 {
				st.SimSeconds += netsim.RoundTimeVar(links, selected, bcast, upBytes, compute)
			}
		case telemetry.EvEval:
			sel := append([]int(nil), selected...)
			sort.Ints(sel)
			st.Trajectory.Records = append(st.Trajectory.Records, fl.RoundRecord{
				Round: e.Round, AvgAcc: e.Acc, CumUp: st.UpBytes, CumDown: st.DownBytes, Selected: sel,
			})
		}
	}
	tr := &st.Trajectory
	st.FinalAcc, st.BestAcc, st.RoundsToTarget = tr.FinalAcc(), tr.BestAcc(), -1
	if spec.TargetAcc > 0 {
		st.RoundsToTarget = tr.RoundsToAcc(spec.TargetAcc)
	}
	return st, sc.Err()
}

// StatsFromFile replays the journal at path.
func StatsFromFile(path string, spec Spec) (CellStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return CellStats{}, err
	}
	defer f.Close()
	return StatsFromJournal(f, spec)
}

// groupKey identifies a comparison group: everything in the cell
// identity except the algorithm — cells differing only by algorithm
// compete for the group's "winner" line.
func groupKey(s Spec) string {
	key := s.dimsKey()
	return strings.TrimPrefix(key, s.WithDefaults().Algo+"_")
}

func fmtRTT(r int) string {
	if r < 0 {
		return "-"
	}
	return fmt.Sprintf("%d", r)
}

func fmtSec(s float64) string {
	if s == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fs", s)
}

// WriteReport renders the human comparison report: one row per cell,
// then per-group winners (best final accuracy among cells differing
// only by algorithm).
func WriteReport(w io.Writer, title string, results []CellResult) error {
	if title == "" {
		title = "scenario matrix"
	}
	fmt.Fprintf(w, "%s: %d cells\n\n", title, len(results))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "cell\talgo\ttransport\tclients\tpart\tskew\tchurn\tfinal\tbest\tr->tgt\tup MB\tdown MB\tdrops\tlate\tsim time")
	for _, r := range results {
		s := r.Spec.WithDefaults()
		if r.Err != nil {
			fmt.Fprintf(tw, "%s\t%s\t%s\t\t\t\t\tERROR: %v\n", r.Key, s.Algo, s.Transport.transportTag(), r.Err)
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.2f\t%s\t%.2f\t%.3f\t%.3f\t%s\t%.2f\t%.2f\t%d\t%d\t%s\n",
			r.Key, s.Algo, s.Transport.transportTag(), s.Clients, s.Participation,
			s.Partition.partTag(), s.Churn,
			r.Stats.FinalAcc, r.Stats.BestAcc, fmtRTT(r.Stats.RoundsToTarget),
			float64(r.Stats.UpBytes)/(1<<20), float64(r.Stats.DownBytes)/(1<<20),
			r.Stats.Drops, r.Stats.LateUploads, fmtSec(r.Stats.SimSeconds))
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// Winners: only meaningful where a group has >1 algorithm.
	groups := map[string][]CellResult{}
	for _, r := range results {
		if r.Err == nil {
			g := groupKey(r.Spec)
			groups[g] = append(groups[g], r)
		}
	}
	var names []string
	for g, rs := range groups {
		if len(rs) > 1 {
			names = append(names, g)
		}
	}
	if len(names) > 0 {
		sort.Strings(names)
		fmt.Fprintf(w, "\nwinners (best final accuracy per setting):\n")
		for _, g := range names {
			best := groups[g][0]
			for _, r := range groups[g][1:] {
				if r.Stats.FinalAcc > best.Stats.FinalAcc {
					best = r
				}
			}
			fmt.Fprintf(w, "  %-40s %s (%.3f)\n", g, best.Spec.WithDefaults().Algo, best.Stats.FinalAcc)
		}
	}
	return nil
}

// WriteReportCSV renders the machine-readable report.
func WriteReportCSV(w io.Writer, results []CellResult) error {
	if _, err := fmt.Fprintln(w, "cell,algo,transport,clients,participation,partition,churn,seed,rounds,final_acc,best_acc,rounds_to_target,up_bytes,down_bytes,drops,late_uploads,sim_seconds,error"); err != nil {
		return err
	}
	for _, r := range results {
		s := r.Spec.WithDefaults()
		errStr := ""
		if r.Err != nil {
			errStr = strings.ReplaceAll(r.Err.Error(), ",", ";")
		}
		if _, err := fmt.Fprintf(w, "%s,%s,%s,%d,%g,%s,%g,%d,%d,%.6f,%.6f,%d,%d,%d,%d,%d,%.3f,%s\n",
			r.Key, s.Algo, s.Transport.transportTag(), s.Clients, s.Participation,
			s.Partition.partTag(), s.Churn, s.Seed,
			r.Stats.Rounds, r.Stats.FinalAcc, r.Stats.BestAcc, r.Stats.RoundsToTarget,
			r.Stats.UpBytes, r.Stats.DownBytes, r.Stats.Drops, r.Stats.LateUploads,
			r.Stats.SimSeconds, errStr); err != nil {
			return err
		}
	}
	return nil
}
