package odh

import (
	"fmt"
	"sort"
	"strings"

	"odh/internal/btree"
	"odh/internal/pagestore"
)

// ErrCorrupt is the sentinel wrapped by every corruption error the
// historian surfaces, from page checksum mismatches up to unreadable
// ValueBlobs; test with errors.Is.
var ErrCorrupt = pagestore.ErrCorrupt

// RecoveryMode selects how a historian treats corrupt data met during
// reads (Options.Recovery).
type RecoveryMode int

const (
	// RecoverFailFast aborts a scan at the first corrupt page or blob
	// (the default): corruption is surfaced, never silently skipped.
	RecoverFailFast RecoveryMode = iota
	// RecoverLenient quarantines unreadable blobs — scans skip them and
	// count the skips in TotalStats().CorruptBlobsSkipped — so a
	// partially damaged historian keeps answering queries from the data
	// that survives. Structural damage (a broken B-tree walk) still
	// aborts.
	RecoverLenient
)

// IntegrityReport is VerifyIntegrity's findings, layer by layer: page
// checksums, B-tree structure, ValueBlob decodability, and whether the
// catalog's statistics account for the records.
type IntegrityReport struct {
	// PagesChecked / CorruptPages cover the on-disk page checksums.
	PagesChecked int
	CorruptPages []uint32
	// TreesChecked / CorruptTrees cover every named B-tree's structural
	// invariants (key order, sibling chain, counts, overflow chains).
	TreesChecked int
	CorruptTrees []string
	// BlobsChecked / CorruptBlobs cover ValueBlob decoding across the
	// operational trees; entries read "tree/source/ts".
	BlobsChecked int
	CorruptBlobs []string
	// StaleStats names, once per source and tree, a record its source's
	// catalog span bounds do not account for (or whose entry was unreadable
	// at open): a scan's lookback trusts those bounds, so a short window
	// could miss the record's rows. Historian.UpgradeBlobs re-derives them.
	StaleStats []string
	// Membership names each MG group holding rows at a slot no stored
	// source holds (rows every read drops), and each catalog record a
	// recovery-mode open skipped: one that does not decode, or an MG
	// source whose slot is out of range or claimed by another source.
	Membership []string
}

// OK reports whether every layer verified clean.
func (r *IntegrityReport) OK() bool {
	return len(r.CorruptPages) == 0 && len(r.CorruptTrees) == 0 && len(r.CorruptBlobs) == 0 && len(r.StaleStats) == 0 && len(r.Membership) == 0
}

// String renders the fsck-style summary.
func (r *IntegrityReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pages: %d checked, %d corrupt\n", r.PagesChecked, len(r.CorruptPages))
	for _, id := range r.CorruptPages {
		fmt.Fprintf(&b, "  corrupt page %d\n", id)
	}
	fmt.Fprintf(&b, "trees: %d checked, %d damaged\n", r.TreesChecked, len(r.CorruptTrees))
	for _, s := range r.CorruptTrees {
		fmt.Fprintf(&b, "  %s\n", s)
	}
	fmt.Fprintf(&b, "blobs: %d checked, %d corrupt\n", r.BlobsChecked, len(r.CorruptBlobs))
	for _, s := range r.CorruptBlobs {
		fmt.Fprintf(&b, "  corrupt blob %s\n", s)
	}
	for _, s := range r.StaleStats {
		fmt.Fprintf(&b, "  statistics do not bound %s (run upgrade)\n", s)
	}
	for _, s := range r.Membership {
		fmt.Fprintf(&b, "  membership: %s\n", s)
	}
	if r.OK() {
		b.WriteString("integrity: OK")
	} else {
		b.WriteString("integrity: FAILED")
	}
	return b.String()
}

// VerifyIntegrity fscks the historian bottom-up: it flushes buffers,
// re-reads and checksums every page on disk, walks every named B-tree's
// structure, and test-decodes every persisted ValueBlob. Corruption is
// reported, not returned: the error is non-nil only when verification
// itself cannot run (the store is closed, the device fails).
func (h *Historian) VerifyIntegrity() (*IntegrityReport, error) {
	if err := h.Flush(); err != nil {
		return nil, fmt.Errorf("odh: verify: flush: %w", err)
	}
	rep := &IntegrityReport{}
	checked, corrupt, err := h.page.VerifyPages()
	if err != nil {
		return nil, fmt.Errorf("odh: verify pages: %w", err)
	}
	rep.PagesChecked = checked
	for _, id := range corrupt {
		rep.CorruptPages = append(rep.CorruptPages, uint32(id))
	}
	roots := h.page.Roots()
	sort.Strings(roots)
	for _, root := range roots {
		name, ok := strings.CutPrefix(root, "btree:")
		if !ok {
			continue
		}
		rep.TreesChecked++
		tr, err := btree.Open(h.page, name)
		if err != nil {
			rep.CorruptTrees = append(rep.CorruptTrees, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		if err := tr.Check(); err != nil {
			rep.CorruptTrees = append(rep.CorruptTrees, fmt.Sprintf("%s: %v", name, err))
		}
	}
	blobs, corruptBlobs, stale, err := h.ts.VerifyBlobs()
	rep.BlobsChecked = blobs
	for _, ref := range corruptBlobs {
		rep.CorruptBlobs = append(rep.CorruptBlobs, ref.String())
	}
	for _, ref := range stale {
		rep.StaleStats = append(rep.StaleStats, ref.String())
	}
	for _, e := range h.cat.Skipped() {
		rep.Membership = append(rep.Membership, fmt.Sprintf("skipped %s record %s: %s", e.Tree, e.Key, e.Reason))
	}
	if err != nil {
		// The blob walk itself broke (structural damage below the blobs);
		// record it rather than failing the whole fsck.
		rep.CorruptTrees = append(rep.CorruptTrees, fmt.Sprintf("blob walk: %v", err))
	} else {
		holes, err := h.ts.HoleRows()
		for _, ref := range holes {
			rep.Membership = append(rep.Membership, fmt.Sprintf("MG group %d holds rows at a slot no stored source holds, from %s", ref.Source, ref))
		}
		if err != nil {
			rep.CorruptTrees = append(rep.CorruptTrees, fmt.Sprintf("MG walk: %v", err))
		}
	}
	return rep, nil
}
