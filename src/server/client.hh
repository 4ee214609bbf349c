/**
 * @file
 * Blocking client for the campaign daemon's Unix-socket JSONL
 * protocol. One Client is one connection; request() pairs each
 * request line with the next response line, and readLine() exposes
 * the raw stream for `subscribe` event loops. Used by the scal_cli
 * `--server` mode, the server tests and the throughput benchmark.
 */

#ifndef SCAL_SERVER_CLIENT_HH
#define SCAL_SERVER_CLIENT_HH

#include <string>

#include "server/jsonl.hh"

namespace scal::server
{

class Client
{
  public:
    /** Connect to the daemon at @p socketPath; throws on failure. */
    explicit Client(const std::string &socketPath);
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Send one request line. */
    void send(const jsonl::Value &req);

    /** Read the next line from the daemon; throws on EOF. */
    jsonl::Value readLine();

    /** send() + readLine(). */
    jsonl::Value request(const jsonl::Value &req);

    /**
     * Convenience: submit (throwing on rejection), then block on
     * `result` and return the terminal job response.
     */
    jsonl::Value submitAndWait(const jsonl::Value &submitReq);

  private:
    int fd_ = -1;
    jsonl::LineBuffer buf_{jsonl::LineBuffer::kUnbounded};
};

} // namespace scal::server

#endif // SCAL_SERVER_CLIENT_HH
