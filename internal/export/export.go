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

// ReadJSON parses a session written by WriteJSON.
func ReadJSON(r io.Reader) (*SessionJSON, error) {
	var s SessionJSON
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("export: json: %w", err)
	}
	return &s, nil
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

// ReadCSV parses a per-chunk CSV back into chunk records.
func ReadCSV(r io.Reader) ([]model.ChunkRecord, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("export: csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("export: csv: empty input")
	}
	if len(rows[0]) != len(csvHeader) {
		return nil, fmt.Errorf("export: csv: %d columns, want %d", len(rows[0]), len(csvHeader))
	}
	out := make([]model.ChunkRecord, 0, len(rows)-1)
	for i, row := range rows[1:] {
		var c model.ChunkRecord
		var err error
		if c.Index, err = strconv.Atoi(row[0]); err != nil {
			return nil, fmt.Errorf("export: csv row %d: bad index: %w", i+1, err)
		}
		if c.Level, err = strconv.Atoi(row[1]); err != nil {
			return nil, fmt.Errorf("export: csv row %d: bad level: %w", i+1, err)
		}
		floats := []*float64{
			&c.Bitrate, &c.SizeKbits, &c.StartTime, &c.DownloadTime,
			&c.Throughput, &c.BufferBefore, &c.BufferAfter, &c.Rebuffer,
			&c.Wait, &c.Predicted, &c.DecisionTime,
		}
		for j, dst := range floats {
			if *dst, err = strconv.ParseFloat(row[2+j], 64); err != nil {
				return nil, fmt.Errorf("export: csv row %d col %d: %w", i+1, 2+j, err)
			}
		}
		if c.Retries, err = strconv.Atoi(row[13]); err != nil {
			return nil, fmt.Errorf("export: csv row %d: bad retries: %w", i+1, err)
		}
		if c.Resumes, err = strconv.Atoi(row[14]); err != nil {
			return nil, fmt.Errorf("export: csv row %d: bad resumes: %w", i+1, err)
		}
		if c.Fallback, err = strconv.ParseBool(row[15]); err != nil {
			return nil, fmt.Errorf("export: csv row %d: bad fallback: %w", i+1, err)
		}
		out = append(out, c)
	}
	return out, nil
}
