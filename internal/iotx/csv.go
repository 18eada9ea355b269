package iotx

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"odh/internal/model"
)

// The paper's data simulator "reads data from standard CSV files and
// simulates real-time data insertion". ExportCSV writes a generated
// dataset in that CSV form (cmd/iotx -export), so a dataset can be frozen
// and shared; the experiments themselves insert straight from the
// generators, which are deterministic per seed.
//
// Layout: header "timestamp,source,<tag1>,...,<tagN>"; one record per
// operational point; NULL tag values are empty fields; floats use the
// shortest round-trippable representation.

// ExportCSV writes the stream to w. tagNames label the value columns.
// It returns the number of points written.
func ExportCSV(w io.Writer, stream pointStream, tagNames []string) (int64, error) {
	cw := csv.NewWriter(w)
	header := append([]string{"timestamp", "source"}, tagNames...)
	if err := cw.Write(header); err != nil {
		return 0, err
	}
	record := make([]string, len(header))
	var n int64
	for {
		p, ok := stream.Next()
		if !ok {
			break
		}
		if len(p.Values) != len(tagNames) {
			return n, fmt.Errorf("iotx: point has %d values, header has %d tags", len(p.Values), len(tagNames))
		}
		record[0] = strconv.FormatInt(p.TS, 10)
		record[1] = strconv.FormatInt(p.Source, 10)
		for i, v := range p.Values {
			if model.IsNull(v) {
				record[2+i] = ""
			} else {
				record[2+i] = strconv.FormatFloat(v, 'g', -1, 64)
			}
		}
		if err := cw.Write(record); err != nil {
			return n, err
		}
		n++
	}
	cw.Flush()
	return n, cw.Error()
}
