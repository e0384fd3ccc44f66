package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"
)

// Report is the end-of-run summary: one entry per population, in
// scenario order. Every number in it derives from the scenario seed —
// counts exactly, aggregates through the order-independent reduction —
// so marshaling the report of the same scenario twice yields identical
// bytes (the CLI's determinism guarantee; wall-clock timing is therefore
// deliberately absent).
type Report struct {
	Scenario    string             `json:"scenario"`
	Seed        int64              `json:"seed"`
	Backend     string             `json:"backend"`
	Populations []PopulationReport `json:"populations"`
}

// Moments summarizes a Welford accumulator (zeros when empty).
type Moments struct {
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// Quantiles are histogram-estimated percentiles (zeros when empty).
type Quantiles struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// PopulationReport is one population's aggregate outcome.
type PopulationReport struct {
	Name           string  `json:"name"`
	Algorithm      string  `json:"algorithm"`
	Sessions       int     `json:"sessions"`
	Launched       int64   `json:"launched"`
	Completed      int64   `json:"completed"`
	Abandoned      int64   `json:"abandoned"`
	Errors         int64   `json:"errors"`
	Chunks         int64   `json:"chunks"`
	ArrivalSpanSec float64 `json:"arrival_span_sec"`

	QoE          Moments   `json:"qoe"`
	QoEPerChunk  Moments   `json:"qoe_per_chunk"`
	QoEQuantiles Quantiles `json:"qoe_per_chunk_quantiles"`

	BitrateKbps      Moments   `json:"bitrate_kbps"`
	RebufferSec      Moments   `json:"rebuffer_sec"`
	RebufferQuantile Quantiles `json:"rebuffer_sec_quantiles"`

	Switches   Moments `json:"switches"`
	StartupSec Moments `json:"startup_sec"`
}

func momentsOf(w Welford) Moments {
	if w.N == 0 {
		return Moments{}
	}
	return Moments{Mean: w.Mean, Std: w.Std(), Min: w.Min, Max: w.Max}
}

func quantilesOf(h *Hist) Quantiles {
	if h.N == 0 {
		return Quantiles{}
	}
	return Quantiles{P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99)}
}

// buildReport assembles the report from the per-population tallies. It
// runs only after every worker has returned, so it reads them unlocked.
func (f *Fleet) buildReport() *Report {
	r := &Report{
		Scenario: f.sc.Name,
		Seed:     f.sc.Seed,
		Backend:  f.opt.Backend,
	}
	for _, ps := range f.pops {
		t := ps.ot.tally
		r.Populations = append(r.Populations, PopulationReport{
			Name:           ps.pop.Name,
			Algorithm:      ps.alg.Name,
			Sessions:       ps.pop.Sessions,
			Launched:       ps.launched.Load(),
			Completed:      t.Completed,
			Abandoned:      t.Abandoned,
			Errors:         ps.errors.Load(),
			Chunks:         t.Chunks,
			ArrivalSpanSec: ps.arrivalSpan,

			QoE:          momentsOf(t.QoE),
			QoEPerChunk:  momentsOf(t.QoEPerChunk),
			QoEQuantiles: quantilesOf(t.QoEHist),

			BitrateKbps:      momentsOf(t.BitrateKbps),
			RebufferSec:      momentsOf(t.RebufferSec),
			RebufferQuantile: quantilesOf(t.RebufHist),

			Switches:   momentsOf(t.Switches),
			StartupSec: momentsOf(t.StartupSec),
		})
	}
	return r
}

// JSON renders the report as indented, key-stable JSON.
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("fleet: marshaling report: %w", err)
	}
	return append(b, '\n'), nil
}

// WriteTable renders the per-population summary as an aligned text table.
func (r *Report) WriteTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "POPULATION\tALGORITHM\tSESSIONS\tDONE\tABANDONED\tQOE/CHUNK\tP95 REBUF(s)\tBITRATE(kbps)\tSWITCHES")
	for _, p := range r.Populations {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%.0f ± %.0f\t%.2f\t%.0f\t%.1f\n",
			p.Name, p.Algorithm, p.Sessions, p.Completed, p.Abandoned,
			p.QoEPerChunk.Mean, p.QoEPerChunk.Std,
			p.RebufferQuantile.P95,
			p.BitrateKbps.Mean,
			p.Switches.Mean)
	}
	return tw.Flush()
}
