// Package experiments reproduces every table and figure of the paper's
// evaluation (§4). Each experiment has a runner returning structured data
// and a renderer that prints the same rows the paper reports;
// cmd/experiments runs them by name.
package experiments
