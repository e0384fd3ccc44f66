// Package export serializes session results for offline analysis: JSON for
// programmatic consumers and CSV for spreadsheets/plotting, mirroring the
// logging the paper's modified dash.js player records (Sec 6: "a complete
// log of the state of the player, including buffer level, bitrates,
// rebuffer time, predicted/actual throughput").
package export

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"mpcdash/internal/model"
)

// SessionJSON is the stable JSON shape of one session. Its metrics and
// chunks are the model's own records, whose json tags are the schema.
type SessionJSON struct {
	Algorithm    string              `json:"algorithm"`
	StartupDelay float64             `json:"startup_delay_s"`
	QoE          float64             `json:"qoe"`
	Metrics      model.Metrics       `json:"metrics"`
	Chunks       []model.ChunkRecord `json:"chunks"`
}

// WriteJSON writes one session as indented JSON.
func WriteJSON(w io.Writer, res *model.SessionResult, weights model.Weights, q model.QualityFunc) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	out := SessionJSON{
		Algorithm:    res.Algorithm,
		StartupDelay: res.StartupDelay,
		QoE:          res.QoE(weights, q),
		Metrics:      res.ComputeMetrics(q),
		Chunks:       res.Chunks,
	}
	if out.Chunks == nil {
		out.Chunks = []model.ChunkRecord{} // "chunks": [], not null
	}
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("export: json: %w", err)
	}
	return nil
}

// csvHeader is the per-chunk CSV column order.
var csvHeader = []string{
	"index", "level", "bitrate_kbps", "size_kbits", "start_s", "download_s",
	"throughput_kbps", "buffer_before_s", "buffer_after_s", "rebuffer_s",
	"wait_s", "predicted_kbps", "decision_s", "retries", "resumes", "fallback",
}

// WriteCSV writes the per-chunk log as CSV with a header row.
func WriteCSV(w io.Writer, res *model.SessionResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("export: csv: %w", err)
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, c := range res.Chunks {
		row := []string{
			strconv.Itoa(c.Index), strconv.Itoa(c.Level), f(c.Bitrate), f(c.SizeKbits),
			f(c.StartTime), f(c.DownloadTime), f(c.Throughput), f(c.BufferBefore),
			f(c.BufferAfter), f(c.Rebuffer), f(c.Wait), f(c.Predicted), f(c.DecisionTime),
			strconv.Itoa(c.Retries), strconv.Itoa(c.Resumes), strconv.FormatBool(c.Fallback),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("export: csv: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("export: csv: %w", err)
	}
	return nil
}
