package daas_test

import (
	"bytes"
	"crypto/sha256"
	"net/http/httptest"
	"testing"

	"repro/daas"
	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/worldgen"
)

var world = func() *worldgen.World {
	w, err := worldgen.Generate(worldgen.TestConfig(31337))
	if err != nil {
		panic(err)
	}
	return w
}()

func localClient() *daas.Client {
	return daas.New(core.LocalSource{Chain: world.Chain}, world.Labels, world.Oracle)
}

func TestStudyEndToEnd(t *testing.T) {
	study, err := localClient().StudyWith(daas.StudyOptions{
		DatasetEnd:         worldgen.DatasetEnd,
		PrimaryContractTxs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if study.Dataset.Stats().Contracts == 0 {
		t.Fatal("empty dataset")
	}
	if study.Validation == nil || len(study.Validation.FalsePositives) != 0 {
		t.Errorf("validation: %+v", study.Validation)
	}
	if len(study.Families) != 9 {
		t.Errorf("families = %d", len(study.Families))
	}
	if len(study.FamilyRows) != len(study.Families) {
		t.Error("family rows mismatch")
	}
	if study.Totals.OperatorUSD <= 0 || study.Totals.AffiliateUSD <= study.Totals.OperatorUSD {
		t.Errorf("totals implausible: %+v", study.Totals)
	}
	if study.Victims.Victims == 0 || study.Operators.Operators == 0 || study.Affiliates.Affiliates == 0 {
		t.Error("empty measurement reports")
	}
	if len(study.Ratios) == 0 || study.Ratios[0].PerMille != 200 {
		t.Errorf("ratio distribution head: %+v", study.Ratios)
	}
	if study.EtherscanCoverage <= 0 || study.EtherscanCoverage >= 1 {
		t.Errorf("coverage = %f", study.EtherscanCoverage)
	}
}

func TestDialAndRemoteStudy(t *testing.T) {
	srv := httptest.NewServer(rpc.NewServer(world.Chain, world.Labels))
	defer srv.Close()

	client, err := daas.Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	// Register the same token quotes so USD valuations match.
	for i, tok := range world.TokenAddrs {
		tp := world.Plan.Tokens[i]
		q, _ := world.Oracle.QuoteOf(tok)
		client.Oracle().Register(tok, q)
		_ = tp
	}
	for i, col := range world.NFTAddrs {
		q, _ := world.Oracle.QuoteOf(col)
		client.Oracle().Register(col, q)
		_ = i
	}
	remote, err := client.StudyWith(daas.StudyOptions{
		DatasetEnd:         worldgen.DatasetEnd,
		PrimaryContractTxs: 2,
		SkipValidation:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	local, err := localClient().StudyWith(daas.StudyOptions{
		DatasetEnd:         worldgen.DatasetEnd,
		PrimaryContractTxs: 2,
		SkipValidation:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if remote.Dataset.Stats() != local.Dataset.Stats() {
		t.Errorf("remote %+v != local %+v", remote.Dataset.Stats(), local.Dataset.Stats())
	}
	if remote.Totals.Victims != local.Totals.Victims {
		t.Errorf("victims differ: %d vs %d", remote.Totals.Victims, local.Totals.Victims)
	}
	// The label directory crosses the wire in per-address order, so the
	// remote client's Directory.Of(addr) lists label sources in the
	// server's order and the exports match byte for byte.
	var remoteJSON, localJSON bytes.Buffer
	if err := remote.Dataset.WriteJSON(&remoteJSON); err != nil {
		t.Fatal(err)
	}
	if err := local.Dataset.WriteJSON(&localJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(remoteJSON.Bytes(), localJSON.Bytes()) {
		t.Errorf("remote export (%d bytes, sha256 %x) differs from local (%d bytes, sha256 %x)",
			remoteJSON.Len(), sha256.Sum256(remoteJSON.Bytes()), localJSON.Len(), sha256.Sum256(localJSON.Bytes()))
	}
}

func TestDialBadEndpoint(t *testing.T) {
	if _, err := daas.Dial("http://127.0.0.1:1"); err == nil {
		t.Error("Dial to dead endpoint succeeded")
	}
}

func TestStudyWithoutOracle(t *testing.T) {
	c := daas.New(core.LocalSource{Chain: world.Chain}, world.Labels, nil)
	if _, err := c.Study(); err == nil {
		t.Error("study without oracle succeeded")
	}
}
