package attack

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"sort"

	"leakydnn/internal/gbdt"
	"leakydnn/internal/lstm"
)

// modelsMagic guards model-set files the way traceMagic guards trace streams;
// the trailing byte is the format version. Version 1 wraps the gob payload in
// a length + sha256 envelope so a bit-flipped cache entry is detected and
// reported instead of deserializing into garbage accuracies — gob happily
// decodes many single-bit corruptions of numeric fields.
const modelsMagic = "MOSMDLS\x01"

// ErrModelSetCorrupt is wrapped into LoadModels' error when the payload
// checksum does not match: the bytes are a model set, but a damaged one. A
// cache that sees this should rebuild the entry, not fail the request.
var ErrModelSetCorrupt = errors.New("attack: model set payload corrupt (checksum mismatch)")

// modelsSnapshot is the gob-serializable form of a trained model set: the
// neural networks and the GBDT are nested as their own encodings.
type modelsSnapshot struct {
	Cfg          Config
	ScalerMin    []float64
	ScalerMax    []float64
	Gap          []byte
	Long         []byte
	VLong        []byte
	Op           []byte
	VOp          []byte
	HP           [NumHPKinds][]byte
	HPVocab      [NumHPKinds][]int
	MajorityLong bool
	MajorityOp   bool
	// ReportKeys and ReportValues carry Models.Report sorted by key, so one
	// set always saves to the same bytes: gob writes a map in iteration
	// order.
	ReportKeys   []string
	ReportValues []float64
}

// Save writes the trained model set to w, so an adversary can profile once
// and attack many victims across sessions.
func (m *Models) Save(w io.Writer) error {
	snap := modelsSnapshot{
		Cfg:          m.Cfg,
		HPVocab:      m.HPVocab,
		MajorityLong: m.majorityLong,
		MajorityOp:   m.majorityOp,
	}
	for k := range m.Report {
		snap.ReportKeys = append(snap.ReportKeys, k)
	}
	sort.Strings(snap.ReportKeys)
	for _, k := range snap.ReportKeys {
		snap.ReportValues = append(snap.ReportValues, m.Report[k])
	}
	// Workers is an execution knob, not a model property: dropping it keeps
	// the encoding identical across worker-pool settings. Batch stays — it
	// changes the training trajectory and therefore describes the models.
	snap.Cfg.Workers = 0
	if m.Scaler != nil {
		snap.ScalerMin = m.Scaler.Min
		snap.ScalerMax = m.Scaler.Max
	}
	var err error
	if snap.Gap, err = encodeGBDT(m.Gap); err != nil {
		return fmt.Errorf("attack: save Mgap: %w", err)
	}
	nets := []struct {
		name string
		net  *lstm.Network
		dst  *[]byte
	}{
		{"Mlong", m.Long, &snap.Long},
		{"Vlong", m.VLong, &snap.VLong},
		{"Mop", m.Op, &snap.Op},
		{"Vop", m.VOp, &snap.VOp},
	}
	for _, n := range nets {
		blob, err := encodeLSTM(n.net)
		if err != nil {
			return fmt.Errorf("attack: save %s: %w", n.name, err)
		}
		*n.dst = blob
	}
	for kind := HPKind(0); kind < NumHPKinds; kind++ {
		blob, err := encodeLSTM(m.HP[kind])
		if err != nil {
			return fmt.Errorf("attack: save Mhp[%s]: %w", kind, err)
		}
		snap.HP[kind] = blob
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(snap); err != nil {
		return fmt.Errorf("attack: save: %w", err)
	}
	if _, err := io.WriteString(w, modelsMagic); err != nil {
		return fmt.Errorf("attack: save: %w", err)
	}
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(payload.Len()))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return fmt.Errorf("attack: save: %w", err)
	}
	sum := sha256.Sum256(payload.Bytes())
	if _, err := w.Write(sum[:]); err != nil {
		return fmt.Errorf("attack: save: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("attack: save: %w", err)
	}
	return nil
}

// maxModelSetBytes bounds the declared payload length before allocating; the
// biggest real model sets (paper scale) are tens of MB.
const maxModelSetBytes = 1 << 30

// LoadModels reads a model set previously written by Save, verifying the
// payload checksum first: corruption anywhere in the envelope or payload is
// an error (wrapping ErrModelSetCorrupt for checksum mismatches), never a
// silently wrong model set.
func LoadModels(r io.Reader) (*Models, error) {
	magic := make([]byte, len(modelsMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("attack: load: read magic: %w", err)
	}
	if string(magic) != modelsMagic {
		return nil, fmt.Errorf("attack: load: bad magic %q (not a model set, or unsupported version)", magic)
	}
	var lenBuf [8]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, fmt.Errorf("attack: load: read payload length: %w", err)
	}
	n := binary.LittleEndian.Uint64(lenBuf[:])
	if n > maxModelSetBytes {
		return nil, fmt.Errorf("attack: load: payload length %d exceeds limit %d", n, maxModelSetBytes)
	}
	var want [sha256.Size]byte
	if _, err := io.ReadFull(r, want[:]); err != nil {
		return nil, fmt.Errorf("attack: load: read checksum: %w", err)
	}
	var payload bytes.Buffer
	if copied, err := io.CopyN(&payload, r, int64(n)); err != nil {
		return nil, fmt.Errorf("attack: load: payload truncated at %d of %d bytes: %w", copied, n, err)
	}
	if sha256.Sum256(payload.Bytes()) != want {
		return nil, ErrModelSetCorrupt
	}
	var snap modelsSnapshot
	if err := gob.NewDecoder(&payload).Decode(&snap); err != nil {
		return nil, fmt.Errorf("attack: load: %w", err)
	}
	if len(snap.ReportKeys) != len(snap.ReportValues) {
		return nil, fmt.Errorf("attack: load: report has %d keys but %d values",
			len(snap.ReportKeys), len(snap.ReportValues))
	}
	m := &Models{
		Cfg:          snap.Cfg,
		HPVocab:      snap.HPVocab,
		majorityLong: snap.MajorityLong,
		majorityOp:   snap.MajorityOp,
	}
	if len(snap.ReportKeys) > 0 {
		m.Report = make(map[string]float64, len(snap.ReportKeys))
		for i, k := range snap.ReportKeys {
			m.Report[k] = snap.ReportValues[i]
		}
	}
	if snap.ScalerMin != nil {
		m.Scaler = &gbdt.MinMaxScaler{Min: snap.ScalerMin, Max: snap.ScalerMax}
	}
	var err error
	if m.Gap, err = decodeGBDT(snap.Gap); err != nil {
		return nil, fmt.Errorf("attack: load Mgap: %w", err)
	}
	if m.Long, err = decodeLSTM(snap.Long); err != nil {
		return nil, fmt.Errorf("attack: load Mlong: %w", err)
	}
	if m.VLong, err = decodeLSTM(snap.VLong); err != nil {
		return nil, fmt.Errorf("attack: load Vlong: %w", err)
	}
	if m.Op, err = decodeLSTM(snap.Op); err != nil {
		return nil, fmt.Errorf("attack: load Mop: %w", err)
	}
	if m.VOp, err = decodeLSTM(snap.VOp); err != nil {
		return nil, fmt.Errorf("attack: load Vop: %w", err)
	}
	for kind := HPKind(0); kind < NumHPKinds; kind++ {
		if m.HP[kind], err = decodeLSTM(snap.HP[kind]); err != nil {
			return nil, fmt.Errorf("attack: load Mhp[%s]: %w", kind, err)
		}
	}
	return m, nil
}

func encodeLSTM(net *lstm.Network) ([]byte, error) {
	if net == nil {
		return nil, nil
	}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeLSTM(blob []byte) (*lstm.Network, error) {
	if len(blob) == 0 {
		return nil, nil
	}
	return lstm.Load(bytes.NewReader(blob))
}

func encodeGBDT(c *gbdt.Classifier) ([]byte, error) {
	if c == nil {
		return nil, nil
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeGBDT(blob []byte) (*gbdt.Classifier, error) {
	if len(blob) == 0 {
		return nil, nil
	}
	return gbdt.Load(bytes.NewReader(blob))
}
