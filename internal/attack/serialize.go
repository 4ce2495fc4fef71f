package attack

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"leakydnn/internal/gbdt"
	"leakydnn/internal/lstm"
	"leakydnn/internal/wire"
)

// modelsMagic guards model-set files the way the trace magic guards trace
// streams; the trailing byte is the format version. Version 2 wraps the
// walk's payload in a length + sha256 envelope, so a bit-flipped cache entry
// is detected and reported instead of decoding into silently wrong weights.
// Version 1 carried a gob payload. It is retired: a model set is a pure
// function of its scale, so a version 1 file is retrained, which is what
// the model cache does with any entry it cannot load.
const modelsMagic = "MOSMDLS\x02"

// envelopeBytes is the envelope ahead of the payload: the magic, the payload
// length and its checksum.
const envelopeBytes = len(modelsMagic) + 8 + sha256.Size

// ErrModelSetCorrupt is wrapped into LoadModels' error when the payload
// checksum does not match: the bytes are a model set, but a damaged one. A
// cache that sees this should rebuild the entry, not fail the request.
var ErrModelSetCorrupt = errors.New("attack: model set payload corrupt (checksum mismatch)")

// walk walks the config in wire order, without Workers: an execution knob,
// not a model property, so the encoding is identical across worker-pool
// settings. Batch stays — it changes the training trajectory and therefore
// describes the models.
func (cfg *Config) walk(c *wire.Codec) {
	c.Int(&cfg.THGap)
	c.Float(&cfg.RMin)
	c.Float(&cfg.RMax)
	c.Int(&cfg.VoteIterations)
	c.Int(&cfg.LongHidden)
	c.Int(&cfg.OpHidden)
	c.Int(&cfg.VoteHidden)
	c.Int(&cfg.HPHidden)
	c.Int(&cfg.Epochs)
	c.Float(&cfg.LearningRate)
	c.Float(&cfg.MinorClassBoost)
	cfg.Gap.Walk(c)
	c.Int64(&cfg.Seed)
	c.Int(&cfg.Batch)
}

// walk walks the model set in wire order: the config, the scaler, Mgap, the
// sequence and voting heads, each Mhp head with its vocabulary, the voting
// choices and the report. Every model is optional.
func (m *Models) walk(c *wire.Codec) {
	m.Cfg.walk(c)
	if wire.Ptr(c, &m.Scaler) {
		walkScaler(m.Scaler, c)
	}
	if wire.Ptr(c, &m.Gap) {
		m.Gap.Walk(c)
	}
	for _, head := range [...]**lstm.Network{&m.Long, &m.VLong, &m.Op, &m.VOp} {
		if wire.Ptr(c, head) {
			(*head).Walk(c)
		}
	}
	for k := range m.HP {
		if wire.Ptr(c, &m.HP[k]) {
			m.HP[k].Walk(c)
		}
		c.Ints(&m.HPVocab[k], "vocabulary")
	}
	c.Bool(&m.majorityLong)
	c.Bool(&m.majorityOp)
	wire.Map(c, &m.Report, "report")
}

func walkScaler(s *gbdt.MinMaxScaler, c *wire.Codec) {
	c.Floats(&s.Min, "scaler minimum")
	c.Floats(&s.Max, "scaler maximum")
}

// Save writes the trained model set to w, so an adversary can profile once
// and attack many victims across sessions. One set always saves to the same
// bytes.
func (m *Models) Save(w io.Writer) error {
	b := make([]byte, envelopeBytes)
	copy(b, modelsMagic)
	c := wire.NewEncoder(b)
	m.walk(c)
	b = c.Bytes()
	payload := b[envelopeBytes:]
	binary.LittleEndian.PutUint64(b[len(modelsMagic):], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(b[len(modelsMagic)+8:], sum[:])
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("attack: save: %w", err)
	}
	return nil
}

// maxModelSetBytes bounds the declared payload length; the biggest real
// model sets (paper scale) are tens of MB.
const maxModelSetBytes = 1 << 30

// LoadModels reads a model set previously written by Save, verifying the
// payload checksum first: corruption anywhere in the envelope or payload is
// an error (wrapping ErrModelSetCorrupt for checksum mismatches), never a
// silently wrong model set.
func LoadModels(r io.Reader) (*Models, error) {
	var env [envelopeBytes]byte
	if n, err := io.ReadFull(r, env[:]); err != nil {
		return nil, fmt.Errorf("attack: load: envelope truncated at %d of %d bytes: %w", n, envelopeBytes, err)
	}
	if magic := env[:len(modelsMagic)]; string(magic) != modelsMagic {
		return nil, fmt.Errorf("attack: load: bad magic %q (not a model set, or a retired version: retrain it)", magic)
	}
	n := binary.LittleEndian.Uint64(env[len(modelsMagic):])
	if n > maxModelSetBytes {
		return nil, fmt.Errorf("attack: load: payload length %d exceeds limit %d", n, maxModelSetBytes)
	}
	// The buffer grows only as bytes arrive, so a claimed length costs what
	// the stream carries.
	var payload bytes.Buffer
	if copied, err := io.CopyN(&payload, r, int64(n)); err != nil {
		return nil, fmt.Errorf("attack: load: payload truncated at %d of %d bytes: %w", copied, n, err)
	}
	if sha256.Sum256(payload.Bytes()) != [sha256.Size]byte(env[len(modelsMagic)+8:]) {
		return nil, ErrModelSetCorrupt
	}
	m := new(Models)
	c := wire.NewDecoder(payload.Bytes(), envelopeBytes)
	m.walk(c)
	if err := c.Finish(); err != nil {
		return nil, fmt.Errorf("attack: load: %w", err)
	}
	return m, nil
}
