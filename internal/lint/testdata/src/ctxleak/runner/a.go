package runner

import (
	"context"
	"time"
)

func work() {}

func bad() {
	go func() { // want "no cancellation path"
		work()
	}()
}

func badLenOnly(queue chan int) {
	go func() { // want "no cancellation path"
		for {
			time.Sleep(time.Millisecond)
			_ = len(queue)
		}
	}()
}

func goodCtx(ctx context.Context) {
	go func() {
		<-ctx.Done()
		work()
	}()
}

func goodSelect(stop chan struct{}) {
	go func() {
		select {
		case <-stop:
		}
	}()
}

func goodCtxArg(ctx context.Context) {
	go func(c context.Context) {
		work()
	}(ctx)
}

func goodRangeChan(jobs chan int) {
	go func() {
		for range jobs {
			work()
		}
	}()
}

func goodSend(results chan int) {
	go func() {
		results <- 1
	}()
}

func namedFuncIsNotAudited() {
	go work()
}

func allowed() {
	go func() { //lint:allow ctxleak fixture: bounded by process lifetime
		work()
	}()
}
