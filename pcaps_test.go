package v6lab

// The pcap sink: a lab given WithPcaps buffers its runs' frames and, once
// the six runs finish, writes each through one writer in config order and
// drops the buffer; a lab without one buffers nothing. An open, write or
// close error fails the run before the dataset is built.

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"v6lab/internal/experiment"
	"v6lab/internal/pcapio"
)

// pcapSink is a WithPcaps sink that keeps each experiment's pcap in
// memory and records the order writers were opened in.
type pcapSink struct {
	opened []string
	files  map[string]*pcapFile
	// openErr and closeErr, when set, fail the open or close of the
	// writer for that experiment ID.
	openErr, closeErr map[string]error
}

// pcapFile is one in-memory pcap; closes counts Close calls.
type pcapFile struct {
	bytes.Buffer
	closes   int
	closeErr error
}

func (f *pcapFile) Close() error {
	f.closes++
	return f.closeErr
}

func newPcapSink() *pcapSink { return &pcapSink{files: map[string]*pcapFile{}} }

func (s *pcapSink) open(id string) (io.WriteCloser, error) {
	s.opened = append(s.opened, id)
	if err := s.openErr[id]; err != nil {
		return nil, err
	}
	f := &pcapFile{closeErr: s.closeErr[id]}
	s.files[id] = f
	return f, nil
}

// records decodes the pcap written for one experiment.
func (s *pcapSink) records(tb testing.TB, id string) []pcapio.Record {
	tb.Helper()
	f := s.files[id]
	if f == nil {
		tb.Fatalf("no pcap was written for %s", id)
	}
	r, err := pcapio.NewReader(bytes.NewReader(f.Bytes()))
	if err != nil {
		tb.Fatal(err)
	}
	recs, err := r.ReadAll()
	if err != nil {
		tb.Fatal(err)
	}
	return recs
}

func configIDs() []string {
	var ids []string
	for _, cfg := range experiment.Configs {
		ids = append(ids, cfg.ID)
	}
	return ids
}

// TestWithPcapsWritesEveryRun: the shared lab opened one writer per
// experiment in config order, closed each once, wrote every delivered
// frame, and kept no buffer afterwards.
func TestWithPcapsWritesEveryRun(t *testing.T) {
	lab := sharedLab(t)
	if want := configIDs(); !reflect.DeepEqual(benchPcaps.opened, want) {
		t.Fatalf("writers opened for %v, want %v", benchPcaps.opened, want)
	}
	for _, res := range lab.Study.Results {
		if res.Capture != nil {
			t.Errorf("%s still buffers %d frames after Run", res.Config.ID, res.Capture.Len())
		}
		if n := benchPcaps.files[res.Config.ID].closes; n != 1 {
			t.Errorf("%s writer closed %d times, want 1", res.Config.ID, n)
		}
		if got, want := len(benchPcaps.records(t, res.Config.ID)), res.FramesDelivered; got != want {
			t.Errorf("%s pcap holds %d records, run delivered %d", res.Config.ID, got, want)
		}
	}
}

// TestWithPcapsErrors: a failed open or close of the third experiment's
// writer fails Run with that error, leaves Data nil, stops opening
// writers, and still drops every run's buffer.
func TestWithPcapsErrors(t *testing.T) {
	third := experiment.Configs[2].ID
	errSink := errors.New("sink failed")
	for name, sink := range map[string]*pcapSink{
		"open":  {files: map[string]*pcapFile{}, openErr: map[string]error{third: errSink}},
		"close": {files: map[string]*pcapFile{}, closeErr: map[string]error{third: errSink}},
	} {
		lab := New(WithDevices("Wyze Cam"), WithPcaps(sink.open))
		if err := lab.Run(); !errors.Is(err, errSink) {
			t.Fatalf("%s error: Run err = %v, want %v", name, err, errSink)
		}
		if lab.Data != nil {
			t.Errorf("%s error: Run populated Data", name)
		}
		if want := configIDs()[:3]; !reflect.DeepEqual(sink.opened, want) {
			t.Errorf("%s error: writers opened for %v, want %v", name, sink.opened, want)
		}
		for id, f := range sink.files {
			if f.closes != 1 {
				t.Errorf("%s error: %s writer closed %d times, want 1", name, id, f.closes)
			}
		}
		for _, res := range lab.Study.Results {
			if res.Capture != nil {
				t.Errorf("%s error: %s still buffers frames", name, res.Config.ID)
			}
		}
	}
}

// TestPcapDir: the directory sink creates its directory and writes the
// same bytes as any other sink, one <experiment>.pcap per run.
func TestPcapDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "captures")
	mem := newPcapSink()
	for _, sink := range []func(string) (io.WriteCloser, error){PcapDir(dir), mem.open} {
		if err := New(WithDevices("Wyze Cam"), WithPcaps(sink)).Run(); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range configIDs() {
		b, err := os.ReadFile(filepath.Join(dir, id+".pcap"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, mem.files[id].Bytes()) {
			t.Errorf("%s.pcap differs between the directory and the in-memory sink", id)
		}
	}
}

// runPcaps runs the default parts on a lab with an in-memory pcap sink
// and returns its output hashes (see labHashes).
func runPcaps(t *testing.T, opts ...Option) map[string]string {
	t.Helper()
	sink := newPcapSink()
	lab := New(append(opts, WithPcaps(sink.open))...)
	if err := lab.Run(); err != nil {
		t.Fatal(err)
	}
	return labHashes(t, lab, sink)
}
