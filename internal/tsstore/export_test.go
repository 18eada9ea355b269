package tsstore

// WalkCounts is what the walk behind one scan did: records take dropped on
// their header's word, records decoded, and the rows those decodes
// materialised.
type WalkCounts struct{ Dropped, Decoded, DecodedRows int }

// ScanWalkCounts reports what the walk behind an iterator of
// HistoricalScanOpts did so far.
func ScanWalkCounts(it Iterator) WalkCounts {
	w := it.(*scanIter).w
	return WalkCounts{Dropped: w.dropped, Decoded: w.decoded, DecodedRows: w.decodedRows}
}
