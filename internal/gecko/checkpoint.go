package gecko

import (
	"fmt"

	"geckoftl/internal/flash"
)

// RunPageExport is the serializable directory entry for one run page: its
// physical location and packed key range. The page's entries are not
// exported: they are flash-resident and survive on the device.
type RunPageExport struct {
	PPN    int64
	MinKey uint32
	MaxKey uint32
}

// RunExport is the serializable form of one run's RAM directory.
type RunExport struct {
	ID        uint64
	CreateSeq uint64
	Level     int
	Pages     []RunPageExport
}

// ExportDirectories snapshots the run directories for a checkpoint, in
// deterministic order: levels ascending, runs in placement order within a
// level. Only directory state is exported; the buffer must have been
// flushed first (Flush), which is the checkpoint writer's responsibility.
func (g *Gecko) ExportDirectories() []RunExport {
	var out []RunExport
	for _, level := range g.levels {
		for _, r := range level {
			re := RunExport{
				ID:        r.id,
				CreateSeq: r.createSeq,
				Level:     r.level,
				Pages:     make([]RunPageExport, 0, len(r.pages)),
			}
			for i := range r.pages {
				p := &r.pages[i]
				re.Pages = append(re.Pages, RunPageExport{
					PPN:    int64(p.ppn),
					MinKey: packKey(p.minKey),
					MaxKey: packKey(p.maxKey),
				})
			}
			out = append(out, re)
		}
	}
	return out
}

// ValidateDirectories checks an exported run set against this instance
// without mutating anything: every run must be well-formed. Whether each
// page address points at programmed metadata is device truth the caller
// checks (it knows which blocks hold metadata). A checkpoint that fails
// validation must fall back to RecoverDirectories.
func (g *Gecko) ValidateDirectories(runs []RunExport) error {
	seenID := make(map[uint64]bool, len(runs))
	for _, re := range runs {
		if seenID[re.ID] {
			return fmt.Errorf("gecko: checkpoint repeats run %d", re.ID)
		}
		seenID[re.ID] = true
		if re.Level < 0 || re.Level > g.cfg.Levels() {
			return fmt.Errorf("gecko: checkpoint run %d at level %d of %d", re.ID, re.Level, g.cfg.Levels())
		}
		if len(re.Pages) == 0 {
			return fmt.Errorf("gecko: checkpoint run %d has no pages", re.ID)
		}
		if sizeLevel := g.cfg.LevelOfRunPages(len(re.Pages)); sizeLevel > re.Level {
			return fmt.Errorf("gecko: checkpoint run %d of %d pages cannot sit at level %d", re.ID, len(re.Pages), re.Level)
		}
	}
	return nil
}

// ImportDirectories replaces the RAM run directories with an exported set
// and ratchets the run-ID and creation-sequence counters, exactly as
// RecoverDirectories does — but without the spare-area scan. The set is
// validated first; on error nothing has been mutated.
func (g *Gecko) ImportDirectories(runs []RunExport) error {
	if err := g.ValidateDirectories(runs); err != nil {
		return err
	}
	g.levels = make([][]*run, g.cfg.Levels()+1)
	for _, re := range runs {
		r := &run{id: re.ID, createSeq: re.CreateSeq, level: re.Level}
		for _, p := range re.Pages {
			r.pages = append(r.pages, runPage{
				ppn:    flash.PPN(p.PPN),
				minKey: unpackKey(p.MinKey),
				maxKey: unpackKey(p.MaxKey),
			})
		}
		if re.CreateSeq > g.seq {
			g.seq = re.CreateSeq
		}
		if re.ID >= g.nextRunID {
			g.nextRunID = re.ID + 1
		}
		g.placeRun(r)
	}
	return nil
}
