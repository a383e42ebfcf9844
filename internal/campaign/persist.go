package campaign

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"

	"autocat/internal/faults"
	"autocat/internal/obs"
)

// recordFormat describes one kind of durable record log: an append-only
// JSONL file of T records, synced per record, whose only tolerated
// damage is a torn final line. The campaign checkpoint and the artifact
// index are the two logs; both open, append and read through the code
// below. name ("checkpoint" or "artifact") labels errors and the fault
// sites <name>.write and <name>.crash; valid says whether a decoded line
// is a complete record.
type recordFormat[T any] struct {
	name  string
	valid func(*T) bool
}

var (
	checkpointFormat = recordFormat[JobResult]{"checkpoint", func(jr *JobResult) bool { return jr.JobID != "" }}
	artifactFormat   = recordFormat[Artifact]{"artifact", func(a *Artifact) bool { return a.ID != "" }}
)

// maxRecordLine caps one record line; an artifact carrying a trained
// policy's replay recipe is the largest record.
const maxRecordLine = 64 * 1024 * 1024

func (rf recordFormat[T]) decode(line []byte) (T, bool) {
	var rec T
	ok := json.Unmarshal(line, &rec) == nil && rf.valid(&rec)
	return rec, ok
}

// read is the strict reader: it calls each for every record in file
// order. A missing file holds no records. A final line without its
// newline is a torn write — the signature of a killed process — and is
// skipped. Any other malformed line means the file is not this log and
// is an error naming the file and the line: a complete line of garbage
// was written as such, and quietly dropping it would hide corruption.
func (rf recordFormat[T]) read(path string, each func(T)) error {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), maxRecordLine)
	var bad error
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if bad != nil {
			return bad // the malformed line was not the last one
		}
		rec, ok := rf.decode(line)
		if !ok {
			bad = fmt.Errorf("campaign: %s line %d is not a valid %s record", path, lineNo, rf.name)
			continue
		}
		each(rec)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if bad != nil && endsWithNewline(f) {
		return bad
	}
	return nil
}

// endsWithNewline reports whether the open file's last byte is '\n'.
func endsWithNewline(f *os.File) bool {
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return false
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], st.Size()-1); err != nil {
		return false
	}
	return b[0] == '\n'
}

// recordLog is an open record log, positioned for appending.
type recordLog[T any] struct {
	recordFormat[T]
	f *os.File
	// off is the end of the last committed record: a failed append
	// rolls back to it.
	off                  int64
	writeSite, crashSite string
}

// open opens (creating if needed) the log at path for appending. A
// process killed mid-write leaves a torn final line; it is repaired
// first, or the next record would concatenate onto the fragment and the
// pair would read back as one line of mid-file corruption.
func (rf recordFormat[T]) open(path string) (*recordLog[T], error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	end, err := rf.repairTornTail(f)
	if err == nil {
		_, err = f.Seek(end, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &recordLog[T]{
		recordFormat: rf,
		f:            f,
		off:          end,
		writeSite:    rf.name + ".write",
		crashSite:    rf.name + ".crash",
	}, nil
}

// repairTornTail fixes a file whose final line has no newline and
// returns the resulting size, i.e. the append offset. A tail that
// decodes as a complete record only lost its terminator — the reader
// accepts it, so deleting it would silently drop a record; it is
// re-terminated. Anything else is a torn fragment and is cut back to
// the previous newline.
func (rf recordFormat[T]) repairTornTail(f *os.File) (int64, error) {
	blob, err := io.ReadAll(f)
	if err != nil {
		return 0, err
	}
	end := int64(len(blob))
	if end == 0 || blob[end-1] == '\n' {
		return end, nil
	}
	cut := int64(bytes.LastIndexByte(blob, '\n') + 1)
	if _, ok := rf.decode(blob[cut:]); ok {
		if _, err := f.WriteAt([]byte("\n"), end); err != nil {
			return 0, err
		}
		return end + 1, nil
	}
	if err := f.Truncate(cut); err != nil {
		return 0, err
	}
	return cut, nil
}

// append writes one record line and syncs it. Callers serialize calls.
// A failed write — including the injected <name>.write fault, which
// fires after the bytes reach the file as EIO or a short write would —
// rolls the file back to the last committed record, so a retried append
// starts clean instead of leaving mid-file corruption behind. A failed
// Sync leaves the record in place, so a retry may append a duplicate
// line; both readers keep one record per key, so that is harmless.
func (l *recordLog[T]) append(rec T) error {
	blob, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	n, err := l.f.Write(append(blob, '\n'))
	if err == nil {
		err = faults.ErrorAt(l.writeSite)
	}
	if err != nil {
		terr := l.f.Truncate(l.off)
		_, serr := l.f.Seek(l.off, io.SeekStart)
		return errors.Join(err, terr, serr)
	}
	l.off += int64(n)
	if err := l.f.Sync(); err != nil {
		return err
	}
	// The crash-equivalence site: the record is durable here, so an
	// injected hard abort models kill -9 right after it.
	faults.CrashAt(l.crashSite)
	return nil
}

func (l *recordLog[T]) Close() error { return l.f.Close() }

// LoadCheckpoint reads a JSONL results file into a map keyed by job ID,
// keeping the last record per ID. A missing file is an empty
// checkpoint; a torn final line is ignored; any other malformed line is
// an error (see recordFormat.read).
func LoadCheckpoint(path string) (map[string]JobResult, error) {
	out := map[string]JobResult{}
	if err := checkpointFormat.read(path, func(jr JobResult) { out[jr.JobID] = jr }); err != nil {
		return nil, err
	}
	return out, nil
}

// appendCheckpoint appends jr to the checkpoint through the one retry
// loop. The writer rolls back partial lines, so a retried append never
// turns a failure into mid-file corruption. It runs under the run's
// lock: the backoff stalls completions, which is the right trade
// against aborting the whole campaign.
func (r *run) appendCheckpoint(ctx context.Context, jr JobResult) error {
	return r.retry(ctx, obs.EvCheckpointRetry, jr.JobID, jr.Name, func(int) error { return r.ckpt.append(jr) })
}

// add is the one tally: every job result enters the Result through it,
// run now or (resumed) restored from the checkpoint. It labels jr with
// its job (a checkpointed Index is stale once the spec grows), counts
// it, records its attack in the catalog and marks its scenario solved.
// It reports whether the attack was new and whether it is the first.
func (r *run) add(job Job, jr JobResult, resumed bool) (novel, first bool) {
	jr.JobID, jr.Index, jr.Name, jr.Seed = job.ID, job.Index, job.Scenario.Name, job.Scenario.Env.Seed
	r.Jobs[job.Index] = jr
	if resumed {
		r.Resumed++
	} else {
		r.Completed++
	}
	if jr.Error != "" {
		r.Failed++
	}
	if jr.Canonical != "" {
		novel = r.Catalog.Record(jr.Canonical, jr.Sequence, jr.Category, jr.Name, jr.Accuracy)
	}
	return novel, r.markSolved(jr)
}

// markSolved marks jr's scenario solved when jr holds an attack and
// reports whether it was the first.
func (r *run) markSolved(jr JobResult) bool {
	if jr.Sequence == "" || r.solved[jr.Name] {
		return false
	}
	r.solved[jr.Name] = true
	return true
}

// resume restores the checkpoint, when the run resumes one, and returns
// the jobs left to run. A checkpointed result is not final when it is
// retryable (a transient failure, or an attack whose artifact was lost
// to one) or RetryFailed forces failures back: it is re-dispatched
// instead of carrying the failure or the loss forever. A re-dispatched
// result with an attack still marks its scenario solved, since its
// first-reliable line is already in the journal.
func (r *run) resume(jobs []Job) (pending []Job, err error) {
	var done map[string]JobResult
	if r.rc.Resume && r.rc.Checkpoint != "" {
		if done, err = LoadCheckpoint(r.rc.Checkpoint); err != nil {
			return nil, err
		}
	}
	for _, job := range jobs {
		prev, ok := done[job.ID]
		if ok && !prev.Retryable && (!r.rc.RetryFailed || prev.Error == "") {
			r.add(job, prev, true)
			continue
		}
		if ok {
			r.redispatched++
			r.markSolved(prev)
		}
		// Prefill the labels so jobs never reached (cancellation) still
		// render usefully in summaries; a zero JobID marks the slot as
		// not run.
		r.Jobs[job.Index] = JobResult{Index: job.Index, Name: job.Scenario.Name, Seed: job.Scenario.Env.Seed}
		pending = append(pending, job)
	}
	return pending, nil
}
