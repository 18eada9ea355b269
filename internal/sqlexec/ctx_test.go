package sqlexec

import (
	"context"
	"errors"
	"testing"
)

// TestQueryCtxCanceled verifies a canceled context aborts row pulls with
// the context's error, visible through errors.Is.
func TestQueryCtxCanceled(t *testing.T) {
	e := newEngine(t)
	tdFixture(t, e)

	ctx, cancel := context.WithCancel(context.Background())
	res, err := e.QueryCtx(ctx, `SELECT T_DTS, T_TRADE_PRICE FROM TRADE WHERE T_CA_ID = 1 AND T_DTS BETWEEN 0 AND 10000000`)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	_, err = res.FetchAll()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
