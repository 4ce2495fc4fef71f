package journal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func tmpJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "run.journal")
}

func mustOpen(t *testing.T, path string) *Journal {
	t.Helper()
	j, err := Open(path)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return j
}

func TestJournalRoundTrip(t *testing.T) {
	path := tmpJournal(t)
	j := mustOpen(t, path)
	recs := []Record{
		{Kind: "fleet-device", Key: "dev0", Payload: []byte("alpha")},
		{Kind: "fleet-device", Key: "dev1", Payload: nil},
		{Kind: "serve-extract", Key: "up-abcdef", Payload: bytes.Repeat([]byte{0x5a}, 4096)},
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2 := mustOpen(t, path)
	defer j2.Close()
	if st := j2.Stats(); st.Records != len(recs) || st.Truncated || st.TornBytes != 0 {
		t.Fatalf("stats = %+v, want %d clean records", st, len(recs))
	}
	got := j2.Records()
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i, r := range recs {
		if got[i].Kind != r.Kind || got[i].Key != r.Key || !bytes.Equal(got[i].Payload, r.Payload) {
			t.Errorf("record %d = %+v, want %+v", i, got[i], r)
		}
	}
}

func TestJournalAppendAfterReopen(t *testing.T) {
	path := tmpJournal(t)
	j := mustOpen(t, path)
	if err := j.Append(Record{Kind: "k", Key: "a", Payload: []byte("1")}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2 := mustOpen(t, path)
	if err := j2.Append(Record{Kind: "k", Key: "b", Payload: []byte("2")}); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	j3 := mustOpen(t, path)
	defer j3.Close()
	got := j3.Records()
	if len(got) != 2 || got[0].Key != "a" || got[1].Key != "b" {
		t.Fatalf("after reopen-append got %+v, want keys a,b", got)
	}
}

// TestJournalTornTail covers the SIGKILL-mid-append case: truncating the file
// at every byte inside the final frame must drop exactly that record, keep
// every earlier one, and leave the file appendable.
func TestJournalTornTail(t *testing.T) {
	path := tmpJournal(t)
	j := mustOpen(t, path)
	if err := j.Append(Record{Kind: "k", Key: "keep", Payload: []byte("payload-0")}); err != nil {
		t.Fatal(err)
	}
	sizeAfterFirst := fileSize(t, path)
	if err := j.Append(Record{Kind: "k", Key: "torn", Payload: []byte("payload-1")}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for cut := sizeAfterFirst + 1; cut < int64(len(full)); cut++ {
		cut := cut
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			p := filepath.Join(t.TempDir(), "torn.journal")
			if err := os.WriteFile(p, full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			j, err := Open(p)
			if err != nil {
				t.Fatalf("Open torn: %v", err)
			}
			defer j.Close()
			st := j.Stats()
			if st.Records != 1 || !st.Truncated || st.TornBytes != cut-sizeAfterFirst {
				t.Fatalf("stats = %+v, want 1 record + %d torn bytes", st, cut-sizeAfterFirst)
			}
			if got := j.Records(); len(got) != 1 || got[0].Key != "keep" {
				t.Fatalf("records = %+v, want only 'keep'", got)
			}
			// The truncated file must accept new appends at the boundary.
			if err := j.Append(Record{Kind: "k", Key: "after", Payload: []byte("x")}); err != nil {
				t.Fatalf("append after truncation: %v", err)
			}
			j.Close()
			j2 := mustOpen(t, p)
			defer j2.Close()
			if got := j2.Records(); len(got) != 2 || got[1].Key != "after" {
				t.Fatalf("after re-append records = %+v", got)
			}
		})
	}
}

// TestJournalCRCCorruption flips one byte in each record's body in turn: the
// corrupt record and everything after it must be discarded (append-only logs
// cannot trust anything past the first bad frame).
func TestJournalCRCCorruption(t *testing.T) {
	path := tmpJournal(t)
	j := mustOpen(t, path)
	for i := 0; i < 3; i++ {
		if err := j.Append(Record{Kind: "k", Key: fmt.Sprintf("dev%d", i), Payload: []byte{byte(i), byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip a byte inside the second record's frame: record 0 survives,
	// records 1 and 2 are discarded.
	frameLen := (int64(len(full)) - int64(len(Magic))) / 3
	flipAt := int64(len(Magic)) + frameLen + frameLen/2
	corrupt := append([]byte(nil), full...)
	corrupt[flipAt] ^= 0xff
	p := filepath.Join(t.TempDir(), "corrupt.journal")
	if err := os.WriteFile(p, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(p)
	if err != nil {
		t.Fatalf("Open corrupt: %v", err)
	}
	defer j2.Close()
	got := j2.Records()
	if len(got) != 1 || got[0].Key != "dev0" {
		t.Fatalf("records = %+v, want only dev0", got)
	}
	if st := j2.Stats(); !st.Truncated || st.TornBytes != int64(len(full))-int64(len(Magic))-frameLen {
		t.Fatalf("stats = %+v", st)
	}
}

func TestJournalBadMagic(t *testing.T) {
	p := filepath.Join(t.TempDir(), "bad.journal")
	if err := os.WriteFile(p, []byte("NOTAJRNLxxxx"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(p); err == nil {
		t.Fatal("Open accepted a file with bad magic")
	}
}

func TestJournalRejectsOversizeAndEmptyFields(t *testing.T) {
	j := mustOpen(t, tmpJournal(t))
	defer j.Close()
	if err := j.Append(Record{Kind: "", Key: "k"}); err == nil {
		t.Error("accepted empty kind")
	}
	if err := j.Append(Record{Kind: "k", Key: ""}); err == nil {
		t.Error("accepted empty key")
	}
	if err := j.Append(Record{Kind: string(bytes.Repeat([]byte{'a'}, 256)), Key: "k"}); err == nil {
		t.Error("accepted 256-byte kind")
	}
}

// TestJournalConcurrentAppend exercises the mutex under -race: concurrent
// appends must all land intact (order unspecified).
func TestJournalConcurrentAppend(t *testing.T) {
	path := tmpJournal(t)
	j := mustOpen(t, path)
	const n = 16
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			done <- j.Append(Record{Kind: "k", Key: fmt.Sprintf("g%02d", i), Payload: []byte{byte(i)}})
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	j2 := mustOpen(t, path)
	defer j2.Close()
	if got := len(j2.Records()); got != n {
		t.Fatalf("replayed %d records, want %d", got, n)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// TestJournalTornMagic reopens files cut short inside the magic, as a kill
// during the very first write leaves them: each is a fresh journal, stamped
// and usable, and its torn bytes are reported.
func TestJournalTornMagic(t *testing.T) {
	for n := 1; n < len(Magic); n++ {
		p := filepath.Join(t.TempDir(), fmt.Sprintf("torn%d.journal", n))
		if err := os.WriteFile(p, []byte(Magic[:n]), 0o644); err != nil {
			t.Fatal(err)
		}
		j := mustOpen(t, p)
		if st := j.Stats(); st.Records != 0 || !st.Truncated || st.TornBytes != int64(n) {
			t.Fatalf("%d-byte magic prefix: stats = %+v, want 0 records and %d torn bytes", n, st, n)
		}
		if got := fileSize(t, p); got != int64(len(Magic)) {
			t.Fatalf("%d-byte magic prefix: file is %d bytes after open, want the %d-byte magic", n, got, len(Magic))
		}
		if err := j.Append(Record{Kind: "k", Key: "dev0", Payload: []byte("x")}); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j2 := mustOpen(t, p)
		if st := j2.Stats(); st.Records != 1 || st.Truncated {
			t.Fatalf("%d-byte magic prefix: reopen stats = %+v, want 1 clean record", n, st)
		}
		j2.Close()
	}
}

// TestJournalShortNotMagic: a file shorter than the magic that is not a
// prefix of it is someone else's file, refused and left as it was.
func TestJournalShortNotMagic(t *testing.T) {
	for _, content := range []string{"X", "MOSX", "MOSJRNL"[:6] + "2"} {
		p := filepath.Join(t.TempDir(), "short.journal")
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(p); err == nil {
			t.Fatalf("Open accepted %q, which is not a prefix of the magic", content)
		}
		got, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != content {
			t.Fatalf("a refused open rewrote %q to %q", content, got)
		}
	}
}

// FuzzJournalOpen opens the magic followed by arbitrary bytes. Open either
// fails or truncates the file to the end of its intact record prefix, and a
// second Open replays the same records and truncates nothing.
func FuzzJournalOpen(f *testing.F) {
	var valid bytes.Buffer
	valid.WriteString(Magic)
	for i, r := range []Record{
		{Kind: "fleet-device", Key: "dev0", Payload: []byte("alpha")},
		{Kind: "serve-extract", Key: "up-1", Payload: nil},
	} {
		frame, err := encodeFrame(r)
		if err != nil {
			f.Fatal(err)
		}
		valid.Write(frame)
		if i == 0 {
			f.Add(valid.Bytes()[len(Magic):])
		}
	}
	tail := valid.Bytes()[len(Magic):]
	f.Add(tail)
	f.Add(tail[:len(tail)-3])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "fuzz.journal")
		if err := os.WriteFile(p, append([]byte(Magic), data...), 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(p)
		if err != nil {
			return
		}
		first := j.Records()
		st := j.Stats()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		size := fileSize(t, p)
		want := int64(len(Magic))
		for _, r := range first {
			frame, err := encodeFrame(r)
			if err != nil {
				t.Fatalf("replayed a record that does not re-encode: %v", err)
			}
			want += int64(len(frame))
		}
		if size != want {
			t.Fatalf("file is %d bytes after open, want the magic plus %d intact frames = %d", size, len(first), want)
		}
		if st.TornBytes != int64(len(Magic)+len(data))-size || st.Truncated != (st.TornBytes > 0) {
			t.Fatalf("stats %+v do not match a cut from %d to %d bytes", st, len(Magic)+len(data), size)
		}
		j2, err := Open(p)
		if err != nil {
			t.Fatalf("reopening a truncated journal: %v", err)
		}
		defer j2.Close()
		if st2 := j2.Stats(); st2.Truncated || st2.TornBytes != 0 || st2.Records != len(first) {
			t.Fatalf("second open stats = %+v, want %d records and no truncation", st2, len(first))
		}
		second := j2.Records()
		for i := range first {
			if first[i].Kind != second[i].Kind || first[i].Key != second[i].Key || !bytes.Equal(first[i].Payload, second[i].Payload) {
				t.Fatalf("record %d differs between opens: %+v vs %+v", i, first[i], second[i])
			}
		}
	})
}
