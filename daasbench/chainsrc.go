package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/ethtypes"
)

// countingSource sits at the base of a source stack, directly above the
// chain (in process or over JSON-RPC), and counts and times every read
// that reaches it. Reads are attributed to the stage the benchmark set
// last, so a study's reads split into build, validate, cluster and
// measure. It forwards every capability the base serves (contexts,
// bytecode, storage), so wrapping changes no decorator's behaviour.
type countingSource struct {
	src core.ChainSource

	mu     sync.Mutex
	stage  string
	txs    map[string]int
	recs   map[string]int
	other  int
	unique map[ethtypes.Hash]struct{}
	busy   time.Duration
}

// countingBatchSource adds array batching when the base serves it, as
// the JSON-RPC client does; the pipeline and the integrity layer batch
// only through sources that declare it.
type countingBatchSource struct {
	*countingSource
	bs core.BatchSource
}

// wrapCounting wraps src, preserving its batch capability.
func wrapCounting(src core.ChainSource) (core.ChainSource, *countingSource) {
	cs := &countingSource{
		src:    src,
		stage:  "other",
		txs:    make(map[string]int),
		recs:   make(map[string]int),
		unique: make(map[ethtypes.Hash]struct{}),
	}
	if bs, ok := src.(core.BatchSource); ok {
		return countingBatchSource{cs, bs}, cs
	}
	return cs, cs
}

func (s *countingSource) setStage(stage string) {
	s.mu.Lock()
	s.stage = stage
	s.mu.Unlock()
}

// note books n reads of one kind that took d in total.
func (s *countingSource) note(kind string, hs []ethtypes.Hash, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.busy += d
	switch kind {
	case "tx":
		s.txs[s.stage] += len(hs)
	case "receipt":
		s.recs[s.stage] += len(hs)
	default:
		s.other++
		return
	}
	for _, h := range hs {
		s.unique[h] = struct{}{}
	}
}

// chainStats is a snapshot of the counters.
type chainStats struct {
	TxReads, ReceiptReads, OtherReads, UniqueTxs int
	ByStage                                      map[string][2]int
	Busy                                         time.Duration
}

func (s *countingSource) stats() chainStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := chainStats{OtherReads: s.other, UniqueTxs: len(s.unique), Busy: s.busy, ByStage: make(map[string][2]int)}
	for stage, n := range s.txs {
		st.TxReads += n
		v := st.ByStage[stage]
		v[0] = n
		st.ByStage[stage] = v
	}
	for stage, n := range s.recs {
		st.ReceiptReads += n
		v := st.ByStage[stage]
		v[1] = n
		st.ByStage[stage] = v
	}
	return st
}

func (s *countingSource) TransactionsOf(addr ethtypes.Address) ([]ethtypes.Hash, error) {
	start := time.Now()
	hs, err := s.src.TransactionsOf(addr)
	s.note("history", nil, time.Since(start))
	return hs, err
}

func (s *countingSource) Transaction(h ethtypes.Hash) (*chain.Transaction, error) {
	start := time.Now()
	tx, err := s.src.Transaction(h)
	s.note("tx", []ethtypes.Hash{h}, time.Since(start))
	return tx, err
}

func (s *countingSource) Receipt(h ethtypes.Hash) (*chain.Receipt, error) {
	start := time.Now()
	rec, err := s.src.Receipt(h)
	s.note("receipt", []ethtypes.Hash{h}, time.Since(start))
	return rec, err
}

func (s *countingSource) TransactionContext(ctx context.Context, h ethtypes.Hash) (*chain.Transaction, error) {
	start := time.Now()
	tx, err := core.SourceTransaction(ctx, s.src, h)
	s.note("tx", []ethtypes.Hash{h}, time.Since(start))
	return tx, err
}

func (s *countingSource) ReceiptContext(ctx context.Context, h ethtypes.Hash) (*chain.Receipt, error) {
	start := time.Now()
	rec, err := core.SourceReceipt(ctx, s.src, h)
	s.note("receipt", []ethtypes.Hash{h}, time.Since(start))
	return rec, err
}

func (s *countingSource) IsContract(addr ethtypes.Address) (bool, error) {
	start := time.Now()
	ok, err := s.src.IsContract(addr)
	s.note("code", nil, time.Since(start))
	return ok, err
}

// Code forwards core.CodeSource.
func (s *countingSource) Code(addr ethtypes.Address) ([]byte, error) {
	cs, ok := s.src.(core.CodeSource)
	if !ok {
		return nil, fmt.Errorf("daasbench: source %T does not serve bytecode", s.src)
	}
	start := time.Now()
	code, err := cs.Code(addr)
	s.note("code", nil, time.Since(start))
	return code, err
}

// StorageAt forwards core.StorageSource; a base without storage reads
// as empty slots, which is what the static screen assumes of it.
func (s *countingSource) StorageAt(addr ethtypes.Address, key ethtypes.Hash) ethtypes.Hash {
	ss, ok := s.src.(core.StorageSource)
	if !ok {
		return ethtypes.Hash{}
	}
	start := time.Now()
	v := ss.StorageAt(addr, key)
	s.note("storage", nil, time.Since(start))
	return v
}

func (s countingBatchSource) BatchTransactions(hs []ethtypes.Hash) ([]*chain.Transaction, error) {
	start := time.Now()
	txs, err := s.bs.BatchTransactions(hs)
	s.note("tx", hs, time.Since(start))
	return txs, err
}

func (s countingBatchSource) BatchReceipts(hs []ethtypes.Hash) ([]*chain.Receipt, error) {
	start := time.Now()
	recs, err := s.bs.BatchReceipts(hs)
	s.note("receipt", hs, time.Since(start))
	return recs, err
}
