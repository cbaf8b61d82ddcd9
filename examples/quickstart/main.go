// Quickstart: open a REACH database, define a monitored class, load a
// rule in the REACH rule language, and watch it fire.
//
//	go run ./examples/quickstart
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	reach "repro"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run walks through the quickstart on a fresh database, writing what
// happens to w.
func run(w io.Writer) error {
	dir, err := os.MkdirTemp("", "reach-quickstart")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	sys, err := reach.Open(reach.Options{Dir: dir})
	if err != nil {
		return err
	}
	defer sys.Close()

	// A monitored class: every method invocation and attribute change
	// is trapped by the sentry and delivered to the rule engine.
	account := reach.NewClass("Account",
		reach.Attr{Name: "owner", Type: reach.TString},
		reach.Attr{Name: "balance", Type: reach.TInt},
	)
	account.Monitored = true
	account.Method("deposit", func(ctx *reach.Ctx, self *reach.Object, args []any) (any, error) {
		b, err := ctx.GetInt(self, "balance")
		if err != nil {
			return nil, err
		}
		return nil, ctx.Set(self, "balance", b+args[0].(int64))
	})
	account.Method("withdraw", func(ctx *reach.Ctx, self *reach.Object, args []any) (any, error) {
		b, err := ctx.GetInt(self, "balance")
		if err != nil {
			return nil, err
		}
		return nil, ctx.Set(self, "balance", b-args[0].(int64))
	})
	if err := sys.RegisterClass(account); err != nil {
		return err
	}

	// Create and persist an account under a root name.
	tx := sys.Begin()
	acct, err := sys.DB.NewObject(tx, "Account")
	if err != nil {
		return err
	}
	sys.DB.Set(tx, acct, "owner", "ada")
	sys.DB.Set(tx, acct, "balance", 100)
	if err := sys.DB.SetRoot(tx, "ada-account", acct); err != nil {
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}

	// An integrity rule in the REACH rule language: withdrawals that
	// would overdraw the account are vetoed immediately.
	loaded, err := sys.LoadRules(`
rule NoOverdraft {
    prio 10;
    decl Account *a, int amount;
    event before a->withdraw(amount);
    cond imm a.balance - amount < 0;
    action imm abort "overdraft refused";
};
`)
	if err != nil {
		return err
	}
	defer loaded.Stop()

	tx2 := sys.Begin()
	if _, err := sys.DB.Invoke(tx2, acct, "withdraw", int64(30)); err != nil {
		return err
	}
	fmt.Fprintln(w, "withdraw 30: ok")
	if _, err := sys.DB.Invoke(tx2, acct, "withdraw", int64(500)); err != nil {
		fmt.Fprintln(w, "withdraw 500:", err)
	} else {
		return errors.New("overdraft was not vetoed")
	}
	if err := tx2.Commit(); err != nil {
		return err
	}

	tx3 := sys.Begin()
	balance, _ := sys.DB.Get(tx3, acct, "balance")
	fmt.Fprintf(w, "final balance: %d\n", balance)
	if err := tx3.Commit(); err != nil {
		return err
	}

	st := sys.Engine.Stats()
	fmt.Fprintf(w, "engine: %d events, %d immediate rule firings\n", st.Events, st.ImmediateFired)
	return nil
}
